//! `bench-report` — the core performance trajectory, machine-readable.
//!
//! Unlike the Criterion benches (which regenerate paper artifacts), this
//! binary measures the three hot paths the runtime-adaptation framework
//! actually exercises, on a synthetic WSDream-shaped workload
//! (339 users × 5825 services, the scale of the paper's dataset #1):
//!
//! 1. **Feed throughput** — online updates per second, sequential
//!    (`AmfModel::observe`) and through [`AmfTrainer::feed_batch`] in
//!    256-sample batches, the serving plane's batch size (clock, store
//!    upsert and the same update, on the calling thread);
//! 2. **Single-pair predict latency** — `AmfModel::predict` over a scan of
//!    all pairs;
//! 3. **Candidate ranking** — the adaptation framework's per-task query:
//!    score every service for one user and keep the top-k
//!    (`AmfModel::rank_candidates` vs. the naive per-pair `predict` scan).
//!
//! Output is a JSON document (default `BENCH_CORE.json` in the working
//! directory) with a stable schema (`amf-bench-core/v3`) so CI can check it
//! with `jq` without gating on absolute numbers. The document embeds the
//! run's own `amf-obs/v1` observability snapshot under `"obs"` — the timed
//! sections exercise the real instrumented paths, so the snapshot carries a
//! stage-level latency breakdown (sampled `model.observe_ns`, the batch
//! path's `engine.chunk_apply_ns`) alongside the aggregate rates. Only the
//! `feed_batch` arm moves the `engine.*` counters, so they count exactly
//! its samples and batches:
//!
//! ```text
//! bench-report [--quick] [--out PATH] [--label NAME] [--merge-before PATH]
//! ```
//!
//! `--quick` shrinks the workload for smoke runs; `--merge-before` embeds a
//! previously captured report under `"before"` so a single file carries the
//! before/after trajectory of a change.

use amf_core::{AmfConfig, AmfModel, AmfTrainer};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Workload shape: WSDream dataset #1 proportions.
struct Workload {
    users: usize,
    services: usize,
    feed_samples: usize,
    batch_samples: usize,
    rank_queries: usize,
    top_k: usize,
}

impl Workload {
    fn full() -> Self {
        Self {
            users: 339,
            services: 5825,
            feed_samples: 1_000_000,
            batch_samples: 200_000,
            rank_queries: 339,
            top_k: 10,
        }
    }

    fn quick() -> Self {
        Self {
            users: 64,
            services: 512,
            feed_samples: 120_000,
            batch_samples: 30_000,
            rank_queries: 64,
            top_k: 10,
        }
    }
}

/// Deterministic LCG stream of `(user, service, raw)` samples in (0.1, 10.1).
fn qos_stream(n: usize, users: usize, services: usize) -> Vec<(usize, usize, f64)> {
    let mut state = 0x0005_DEEC_E66D_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    (0..n)
        .map(|_| {
            let u = (next() >> 33) as usize % users;
            let s = (next() >> 33) as usize % services;
            let v = 0.1 + ((next() >> 11) as f64 / (1u64 << 53) as f64) * 10.0;
            (u, s, v)
        })
        .collect()
}

/// A model with every entity registered and lightly warmed, so timed
/// sections measure steady-state updates, not entity registration.
fn warmed_model(w: &Workload) -> AmfModel {
    let mut model = AmfModel::new(AmfConfig::response_time()).expect("valid config");
    model.ensure_user(w.users - 1);
    model.ensure_service(w.services - 1);
    for (u, s, v) in qos_stream(50_000.min(w.feed_samples), w.users, w.services) {
        model.observe(u, s, v);
    }
    model
}

fn feed_sequential(w: &Workload, out: &mut String) {
    let mut model = warmed_model(w);
    let stream = qos_stream(w.feed_samples, w.users, w.services);
    let start = Instant::now();
    for &(u, s, v) in &stream {
        black_box(model.observe(u, s, v));
    }
    let secs = start.elapsed().as_secs_f64();
    let rate = w.feed_samples as f64 / secs;
    println!(
        "feed_sequential        {:>9} samples  {:>8.3} s  {:>12.0} samples/s",
        w.feed_samples, secs, rate
    );
    let _ = writeln!(
        out,
        "    \"feed_sequential\": {{\"samples\": {}, \"secs\": {:.6}, \"samples_per_sec\": {:.1}}},",
        w.feed_samples, secs, rate
    );
}

/// Samples per [`AmfTrainer::feed_batch`] call: one `POST /v1/observe` batch
/// of the serving plane.
const BATCH: usize = 256;

fn feed_batch(w: &Workload, out: &mut String) {
    let mut trainer = AmfTrainer::new(AmfConfig::response_time()).expect("valid config");
    *trainer.model_mut() = warmed_model(w);
    let stream: Vec<(usize, usize, u64, f64)> = qos_stream(w.batch_samples, w.users, w.services)
        .into_iter()
        .enumerate()
        .map(|(t, (u, s, v))| (u, s, t as u64, v))
        .collect();
    let start = Instant::now();
    for batch in stream.chunks(BATCH) {
        black_box(trainer.feed_batch(batch.iter().copied()));
    }
    let secs = start.elapsed().as_secs_f64();
    let rate = w.batch_samples as f64 / secs;
    println!(
        "feed_batch ({BATCH})       {:>9} samples  {:>8.3} s  {:>12.0} samples/s",
        w.batch_samples, secs, rate
    );
    let _ = writeln!(
        out,
        "    \"feed_batch\": {{\"batch\": {BATCH}, \"samples\": {}, \"secs\": {:.6}, \"samples_per_sec\": {:.1}}},",
        w.batch_samples, secs, rate
    );
}

fn predict_and_rank(w: &Workload, out: &mut String) {
    let model = warmed_model(w);

    // Single-pair predict latency over a full scan.
    let pairs = w.users * w.services;
    let start = Instant::now();
    let mut acc = 0.0;
    for u in 0..w.users {
        for s in 0..w.services {
            acc += model.predict(u, s).unwrap_or(0.0);
        }
    }
    black_box(acc);
    let secs = start.elapsed().as_secs_f64();
    let ns_per_pair = secs * 1e9 / pairs as f64;
    println!(
        "predict_single         {:>9} pairs    {:>8.3} s  {:>9.1} ns/pair",
        pairs, secs, ns_per_pair
    );
    let _ = writeln!(
        out,
        "    \"predict_single\": {{\"pairs\": {}, \"secs\": {:.6}, \"ns_per_pair\": {:.2}}},",
        pairs, secs, ns_per_pair
    );

    // Per-pair baseline for candidate ranking: predict every service for one
    // user and argsort-select the top-k. This is what the adaptation loop
    // would do without a batch kernel.
    let start = Instant::now();
    let mut keep = 0usize;
    for q in 0..w.rank_queries {
        let user = q % w.users;
        let mut scored: Vec<(usize, f64)> = (0..w.services)
            .map(|s| (s, model.predict(user, s).unwrap_or(f64::INFINITY)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(w.top_k);
        keep += black_box(&scored).len();
    }
    let naive_secs = start.elapsed().as_secs_f64();
    let naive_rate = w.rank_queries as f64 / naive_secs;
    println!(
        "rank_naive_per_pair    {:>9} queries  {:>8.3} s  {:>12.1} queries/s",
        w.rank_queries, naive_secs, naive_rate
    );
    let _ = writeln!(
        out,
        "    \"rank_naive_per_pair\": {{\"queries\": {}, \"services\": {}, \"k\": {}, \"secs\": {:.6}, \"queries_per_sec\": {:.2}}},",
        w.rank_queries, w.services, w.top_k, naive_secs, naive_rate
    );

    // Batch candidate-ranking kernel.
    let start = Instant::now();
    for q in 0..w.rank_queries {
        let user = q % w.users;
        let ranked = rank_candidates(&model, user, w.top_k);
        keep += black_box(&ranked).len();
    }
    let rank_secs = start.elapsed().as_secs_f64();
    let rank_rate = w.rank_queries as f64 / rank_secs;
    black_box(keep);
    let speedup = naive_secs / rank_secs;
    println!(
        "rank_candidates        {:>9} queries  {:>8.3} s  {:>12.1} queries/s  ({speedup:.2}x vs per-pair)",
        w.rank_queries, rank_secs, rank_rate
    );
    let _ = writeln!(
        out,
        "    \"rank_candidates\": {{\"queries\": {}, \"services\": {}, \"k\": {}, \"secs\": {:.6}, \"queries_per_sec\": {:.2}, \"speedup_vs_per_pair\": {:.3}}}",
        w.rank_queries, w.services, w.top_k, rank_secs, rank_rate, speedup
    );
}

/// The batch ranking path under measurement: the model's slab kernel (one
/// streaming pass over the contiguous service factors, bounded top-k heap).
fn rank_candidates(model: &AmfModel, user: usize, k: usize) -> Vec<(usize, f64)> {
    model.rank_candidates(user, k)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "BENCH_CORE.json".to_string();
    let mut label = String::new();
    let mut merge_before: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = iter.next().expect("--out needs a path").clone(),
            "--label" => label = iter.next().expect("--label needs a value").clone(),
            "--merge-before" => {
                merge_before = Some(iter.next().expect("--merge-before needs a path").clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: bench-report [--quick] [--out PATH] [--label NAME] [--merge-before PATH]");
                std::process::exit(2);
            }
        }
    }
    let w = if quick {
        Workload::quick()
    } else {
        Workload::full()
    };
    println!(
        "bench-report: {} users x {} services, dimension {}{}",
        w.users,
        w.services,
        AmfConfig::response_time().dimension,
        if quick { " (quick)" } else { "" }
    );

    let mut results = String::new();
    feed_sequential(&w, &mut results);
    feed_batch(&w, &mut results);
    predict_and_rank(&w, &mut results);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"amf-bench-core/v3\",");
    if !label.is_empty() {
        let _ = writeln!(json, "  \"label\": \"{label}\",");
    }
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"users\": {}, \"services\": {}, \"dimension\": {}}},",
        w.users,
        w.services,
        AmfConfig::response_time().dimension
    );
    let _ = write!(json, "  \"results\": {{\n{results}  }},");
    // Observability snapshot of the run itself: the timed sections above
    // executed real `observe` and `feed_batch` paths, so the global `amf-obs/v1`
    // registry now carries their sampled latency histograms and counters.
    // Embedding it gives every BENCH_CORE.json a stage-level latency
    // breakdown alongside the aggregate rates.
    let _ = write!(
        json,
        "\n  \"obs\": {}",
        qos_obs::global().snapshot_json(false).to_string_compact()
    );
    if let Some(path) = merge_before {
        match std::fs::read_to_string(&path) {
            Ok(before) => {
                let _ = write!(json, ",\n  \"before\": {}", before.trim_end());
            }
            Err(e) => eprintln!("warning: could not read --merge-before {path}: {e}"),
        }
    }
    json.push_str("\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
