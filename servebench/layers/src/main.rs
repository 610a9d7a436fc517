//! `servebench-layers` — the per-layer half of the serving benchmark's
//! traced run.
//!
//! Times each serving layer's public functions in-process, on the inputs of
//! one workload: the raw requests and response documents the traced HTTP
//! replay exchanged (dumped by `servebench` into `--dump DIR`), and the same
//! seeded fleet, warm-up and request stream the server was given. Each timed
//! loop is recorded as a span (name, start, end, parent); the spans are
//! written to `DIR/spans-layers.jsonl`. The last line of standard output is
//! `{"correct": .., "metrics": {..}}`.
//!
//! ```text
//! servebench-layers --workload NAME --seed N --dump DIR
//! ```

use amf_core::{AmfConfig, AmfTrainer, Consistency, EngineOptions};
use qos_obs::Json;
use qos_serve::http::{parse_request, Parsed};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
use servebench::inputs::{QosSample, RECORDS_PER_OBSERVE};
use servebench::stats::median;
use servebench::trace::SpanLog;
use servebench::{Fleet, FleetInputs, Kind, Mix, Req, RequestStream, Workload};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Serve's shipped defaults: the service `amf-qos serve` builds.
fn serve_config() -> ServiceConfig {
    ServiceConfig {
        shards: 4,
        ..ServiceConfig::default()
    }
}

/// Observe batches timed per fleet (paper-scale batches cost ~1 ms).
fn observe_batches(fleet: Fleet) -> usize {
    match fleet {
        Fleet::Small => 2000,
        Fleet::Paper => 300,
    }
}

/// Calls per ns-scale timed loop.
const TIGHT_CALLS: usize = 200_000;

/// Metrics, spans and failed checks of one run.
struct Layers {
    spans: SpanLog,
    metrics: Vec<(String, &'static str, f64)>,
    problems: Vec<String>,
}

impl Layers {
    /// Runs `f` under a span named `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.open(name);
        let out = f(self);
        self.spans.close(id);
        out
    }

    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 10 {
            self.problems.push(what());
        }
    }
}

/// Mean time per call of `f` over `calls` calls, in ns.
fn mean_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..calls {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

fn record(s: &QosSample) -> QosRecord {
    QosRecord {
        user: format!("user-{}", s.user),
        service: format!("svc-{}", s.service),
        timestamp: s.timestamp,
        value: s.value,
    }
}

/// A service built and warmed like `amf-qos serve --data`: 256-record
/// batches through `submit_batch`.
fn warm_service(inputs: &FleetInputs) -> QosPredictionService {
    let service = QosPredictionService::new(serve_config());
    for chunk in inputs.warm.chunks(256) {
        service.submit_batch(chunk.iter().map(record).collect());
    }
    service
}

/// The requests of `kind` a workload sends on its fleet; a kind the
/// workload does not send comes from a stream of that kind alone.
fn requests_of(
    inputs: &FleetInputs,
    seed: u64,
    workload: Workload,
    kind: Kind,
    n: usize,
) -> Vec<Req> {
    let mix = if workload.fleet() == inputs.fleet && workload.mix().sends(kind) {
        workload.mix()
    } else {
        Mix::only(kind)
    };
    let mut stream = RequestStream::new(inputs, seed, mix);
    std::iter::repeat_with(|| stream.next_req())
        .filter(|r| r.kind() == kind)
        .take(n)
        .collect()
}

fn observe_records(reqs: &[Req]) -> Vec<Vec<QosRecord>> {
    reqs.iter()
        .map(|r| match r {
            Req::Observe(records) => records.iter().map(record).collect(),
            _ => unreachable!("observe requests only"),
        })
        .collect()
}

fn read_dump(dir: &Path) -> Result<(Vec<Vec<u8>>, Vec<String>), String> {
    let raw = std::fs::read(dir.join("requests.bin")).map_err(|e| format!("requests.bin: {e}"))?;
    let mut requests = Vec::new();
    let mut at = 0;
    while at + 4 <= raw.len() {
        let len = u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes")) as usize;
        let body = raw
            .get(at + 4..at + 4 + len)
            .ok_or("requests.bin is truncated")?;
        requests.push(body.to_vec());
        at += 4 + len;
    }
    let responses = std::fs::read_to_string(dir.join("responses.ndjson"))
        .map_err(|e| format!("responses.ndjson: {e}"))?
        .lines()
        .map(str::to_string)
        .collect();
    Ok((requests, responses))
}

fn run(workload: Workload, seed: u64, dir: &Path) -> Result<Layers, String> {
    let mut l = Layers {
        spans: SpanLog::new(Instant::now()),
        metrics: Vec::new(),
        problems: Vec::new(),
    };
    let (requests, responses) = read_dump(dir)?;
    if requests.is_empty() || responses.is_empty() {
        return Err("the dump holds no requests or responses".into());
    }
    let root = l.spans.open("layers");

    // serve.conn: HTTP framing of the workload's own request bytes.
    let conn_span = l.spans.open("serve.conn");
    let ns = l.span("serve.conn.parse_request", |_| {
        mean_ns(TIGHT_CALLS / 10, |i| {
            black_box(parse_request(black_box(&requests[i % requests.len()]), 1 << 20).ok());
        })
    });
    for r in &requests {
        let complete = matches!(parse_request(r, 1 << 20), Ok(Parsed::Complete { consumed, .. }) if consumed == r.len());
        l.check(complete, || {
            "parse_request did not take a whole dumped request".into()
        });
    }
    l.metric("serve.conn.parse_request_ns", "ns", ns);
    l.spans.close(conn_span);

    // obs.json: decode of each NDJSON line sent, encode of each response.
    let lines: Vec<&str> = requests
        .iter()
        .filter_map(|r| {
            r.windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| &r[p + 4..])
        })
        .filter_map(|body| std::str::from_utf8(body).ok())
        .flat_map(str::lines)
        .filter(|line| !line.trim().is_empty())
        .collect();
    let docs: Vec<Json> = responses
        .iter()
        .filter_map(|r| Json::parse(r).ok())
        .collect();
    l.check(docs.len() == responses.len(), || {
        "a dumped response is not JSON".into()
    });
    l.check(lines.iter().all(|line| Json::parse(line).is_ok()), || {
        "a sent line is not JSON".into()
    });
    l.check(
        docs.iter()
            .zip(&responses)
            .all(|(d, r)| &d.to_string_compact() == r),
        || "re-encoding a response changed it".into(),
    );
    let json_span = l.spans.open("obs.json");
    let ns = l.span("obs.json.parse_line", |_| {
        mean_ns(TIGHT_CALLS / 4, |i| {
            black_box(Json::parse(black_box(lines[i % lines.len()])).ok());
        })
    });
    l.metric("obs.json.parse_line_ns", "ns", ns);
    let ns = l.span("obs.json.encode", |_| {
        mean_ns(TIGHT_CALLS / 10, |i| {
            black_box(black_box(&docs[i % docs.len()]).to_string_compact());
        })
    });
    l.metric("obs.json.encode_ns", "ns", ns);
    l.spans.close(json_span);

    // service: the prediction service as serve builds it, warmed alike.
    let service_span = l.spans.open("service");
    let mut own = None;
    for fleet in Fleet::ALL {
        let inputs = FleetInputs::generate(fleet, seed);
        let service = l.span(&format!("service.warm.{}", fleet.label()), |_| {
            warm_service(&inputs)
        });
        let batches = observe_records(&requests_of(
            &inputs,
            seed,
            workload,
            Kind::Observe,
            observe_batches(fleet),
        ));
        let rejected_before = service.stats().rejected;
        let offered = batches.len() * RECORDS_PER_OBSERVE;
        let mut shed = 0usize;
        let mut applied = 0usize;
        let times = l.span(&format!("service.observe_batch.{}", fleet.label()), |_| {
            batches
                .into_iter()
                .map(|batch| {
                    let started = Instant::now();
                    for r in batch {
                        shed += usize::from(!service.offer(r));
                    }
                    applied += service.drain_inputs();
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect::<Vec<f64>>()
        });
        let quarantined = service.stats().rejected - rejected_before;
        l.check(applied + shed + quarantined as usize == offered, || {
            format!("observe: {applied} applied + {shed} shed + {quarantined} quarantined != {offered} offered")
        });
        l.metric(
            format!("service.observe_batch_us.{}", fleet.label()),
            "us",
            median(&times),
        );
        if fleet == workload.fleet() {
            l.metric("service.shed_ratio", "ratio", shed as f64 / offered as f64);
            l.metric(
                "service.quarantine_ratio",
                "ratio",
                quarantined as f64 / offered as f64,
            );
            own = Some((inputs, service));
        }
    }
    let (inputs, service) = own.expect("the workload's fleet is one of Fleet::ALL");
    let pairs: Vec<(String, String)> = requests_of(&inputs, seed, workload, Kind::Predict, 2000)
        .iter()
        .flat_map(|r| match r {
            Req::Predict(pairs) => pairs.clone(),
            _ => unreachable!("predict requests only"),
        })
        .map(|(u, s)| (format!("user-{u}"), format!("svc-{s}")))
        .collect();
    let users: Vec<String> = requests_of(&inputs, seed, workload, Kind::Rank, 500)
        .iter()
        .map(|r| match r {
            Req::Rank(u) => format!("user-{u}"),
            _ => unreachable!("rank requests only"),
        })
        .collect();
    let range = 0.0..=20.0;
    let all_in_range = pairs.iter().all(|(u, s)| {
        let p = service.predict_degraded(u, s);
        p.value.is_finite() && range.contains(&p.value)
    });
    l.check(all_in_range, || {
        "predict_degraded left the QoS range".into()
    });
    let ns = l.span("service.predict_pair", |_| {
        mean_ns(TIGHT_CALLS, |i| {
            let (u, s) = &pairs[i % pairs.len()];
            black_box(service.predict_degraded(black_box(u), black_box(s)));
        })
    });
    l.metric("service.predict_pair_ns", "ns", ns);
    let ranks_ok = users.iter().all(|u| {
        service
            .rank_candidates(u, 5)
            .is_ok_and(|r| !r.is_empty() && r.len() <= 5)
    });
    l.check(ranks_ok, || {
        "rank_candidates failed or returned more than k".into()
    });
    let ns = l.span("service.rank", |_| {
        mean_ns(users.len() * 4, |i| {
            black_box(
                service
                    .rank_candidates(black_box(&users[i % users.len()]), 5)
                    .ok(),
            );
        })
    });
    l.metric("service.rank_us", "us", ns / 1e3);
    // The same predicts while a second thread runs the observe call: the
    // excess over `predict_pair_ns` is time spent waiting for the trainer.
    let mut contention = observe_records(&requests_of(
        &inputs,
        seed ^ 1,
        workload,
        Kind::Observe,
        4000,
    ))
    .into_iter();
    let stop = AtomicBool::new(false);
    let ns = l.span("service.predict_contended", |_| {
        std::thread::scope(|scope| {
            let observer = scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let Some(batch) = contention.next() else {
                        break;
                    };
                    for r in batch {
                        service.offer(r);
                    }
                    service.drain_inputs();
                }
            });
            let ns = mean_ns(TIGHT_CALLS / 10, |i| {
                let (u, s) = &pairs[i % pairs.len()];
                black_box(service.predict_degraded(black_box(u), black_box(s)));
            });
            stop.store(true, Ordering::Relaxed);
            observer.join().expect("observer thread panicked");
            ns
        })
    });
    l.metric("service.predict_contended_ns", "ns", ns);
    l.spans.close(service_span);

    // core.engine and core.model: the trainer and model under the service,
    // warmed with the same split.
    let mut trainer =
        AmfTrainer::new(AmfConfig::response_time()).map_err(|e| format!("trainer: {e}"))?;
    for s in &inputs.warm {
        trainer.feed(s.user, s.service, s.timestamp, s.value);
    }
    let batches: Vec<Vec<(usize, usize, u64, f64)>> = requests_of(
        &inputs,
        seed,
        workload,
        Kind::Observe,
        observe_batches(inputs.fleet),
    )
    .iter()
    .map(|r| match r {
        Req::Observe(records) => records
            .iter()
            .map(|s| (s.user, s.service, s.timestamp, s.value))
            .collect(),
        _ => unreachable!("observe requests only"),
    })
    .collect();
    let options = EngineOptions::with_consistency(serve_config().shards, Consistency::Parity);
    let engine_span = l.spans.open("core.engine");
    let mut fed_ok = true;
    let times = l.span("core.engine.feed_batch", |_| {
        batches
            .iter()
            .map(|batch| {
                let started = Instant::now();
                fed_ok &= trainer
                    .feed_batch_sharded_with(batch.clone(), options, None)
                    .is_ok_and(|(n, _)| n == batch.len());
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    l.check(fed_ok, || {
        "feed_batch_sharded_with did not apply a whole batch".into()
    });
    l.metric("core.engine.feed_batch_us", "us", median(&times));
    let times = l.span("core.engine.feed_seq", |_| {
        batches
            .iter()
            .map(|batch| {
                let started = Instant::now();
                for &(u, s, t, v) in batch {
                    trainer.feed(u, s, t, v);
                }
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    l.metric("core.engine.feed_seq_us", "us", median(&times));
    l.spans.close(engine_span);

    let model_span = l.spans.open("core.model");
    let samples: Vec<(usize, usize, f64)> = inputs
        .stream
        .iter()
        .take(50_000)
        .map(|s| (s.user, s.service, s.value))
        .collect();
    let id_pairs: Vec<(usize, usize)> = samples.iter().map(|&(u, s, _)| (u, s)).collect();
    let model = trainer.model_mut();
    let ns = l.span("core.model.observe", |_| {
        mean_ns(TIGHT_CALLS, |i| {
            let (u, s, v) = samples[i % samples.len()];
            black_box(model.observe(u, s, v));
        })
    });
    l.metric("core.model.observe_ns", "ns", ns);
    let model = trainer.model();
    l.check(
        id_pairs
            .iter()
            .all(|&(u, s)| model.predict(u, s).is_some_and(f64::is_finite)),
        || "the model cannot predict a warmed pair".into(),
    );
    let ns = l.span("core.model.predict", |_| {
        mean_ns(TIGHT_CALLS, |i| {
            let (u, s) = id_pairs[i % id_pairs.len()];
            black_box(model.predict(u, s));
        })
    });
    l.metric("core.model.predict_ns", "ns", ns);
    let rank_users: Vec<usize> = id_pairs.iter().map(|&(u, _)| u).take(500).collect();
    let ns = l.span("core.model.rank", |_| {
        mean_ns(rank_users.len() * 4, |i| {
            black_box(model.rank_candidates(rank_users[i % rank_users.len()], 5));
        })
    });
    l.metric("core.model.rank_us", "us", ns / 1e3);
    l.spans.close(model_span);
    l.spans.close(root);
    Ok(l)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut args = std::env::args().skip(1);
    while let (Some(flag), Some(value)) = (args.next(), args.next()) {
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--dump" => dir = Some(PathBuf::from(value)),
            _ => {}
        }
    }
    let (Some(workload), Some(seed), Some(dir)) = (workload, seed, dir) else {
        eprintln!("usage: servebench-layers --workload NAME --seed N --dump DIR");
        return ExitCode::from(2);
    };
    let l = match run(workload, seed, &dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("servebench-layers: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = String::new();
    l.spans.write_jsonl(&mut spans);
    let path = dir.join("spans-layers.jsonl");
    if let Err(e) = std::fs::write(&path, spans) {
        eprintln!("servebench-layers: {e}");
        return ExitCode::from(2);
    }
    for p in &l.problems {
        println!("FAILED CHECK: {p}");
    }
    let mut out = format!("{{\"correct\": {}, \"metrics\": {{", l.problems.is_empty());
    for (i, (name, unit, value)) in l.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
    if l.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
