//! `bench-report` — the core performance trajectory, machine-readable.
//!
//! Unlike the Criterion benches (which regenerate paper artifacts), this
//! binary measures the hot paths the runtime-adaptation framework
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
//!    (`AmfModel::rank_candidates` vs. the naive per-pair `predict` scan);
//! 4. **Per-pair store** — [`ObservationStore`] upserts of new pairs,
//!    refreshes of stored ones and `get`s, on as many distinct pairs as
//!    the serving plane's paper-scale warm-up stores (63,727), over two key
//!    sets: a stride through the id grid (`store`, an arithmetic
//!    progression) and a random pair stream whose ids are issued in
//!    arrival order, as the service's registries issue them
//!    (`store_arrival`);
//! 5. **Name registry** — [`Registry`] joins of new and of known names and
//!    resolves that hit and that miss, at the paper's 4,500 services.
//!
//! Each arm runs [`TRIALS`] times ([`QUICK_TRIALS`] under `--quick`) and
//! reports its median trial, plus `trials`, `secs_min` and `secs_max`, so a
//! reader sees each number's spread.
//!
//! Output is a JSON document (default `BENCH_CORE.json` in the working
//! directory) with a stable schema (`amf-bench-core/v6`) so CI can check it
//! with `jq` without gating on absolute numbers. The document embeds the
//! run's own `amf-obs/v1` observability snapshot under `"obs"` — the timed
//! sections exercise the real instrumented paths, so the snapshot carries a
//! stage-level latency breakdown (sampled `model.observe_ns`, the batch
//! path's `engine.chunk_apply_ns`) alongside the aggregate rates. Only the
//! `feed_batch` arm moves the `engine.*` counters, so over its trials they
//! count exactly `trials × samples` jobs and `trials × ceil(samples / 256)`
//! chunks:
//!
//! ```text
//! bench-report [--quick] [--out PATH] [--label NAME] [--merge-before PATH]
//! ```
//!
//! `--quick` shrinks the workload for smoke runs; `--merge-before` embeds a
//! previously captured report under `"before"` so a single file carries the
//! before/after trajectory of a change.

use amf_core::{AmfConfig, AmfModel, AmfTrainer, ObservationStore};
use qos_service::Registry;
use std::collections::HashSet;
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
    store_pairs: usize,
    /// Fresh registries each `registry` trial fills and queries.
    registry_rounds: usize,
    trials: usize,
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
            store_pairs: 63_727,
            registry_rounds: 40,
            trials: TRIALS,
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
            store_pairs: 16_384,
            registry_rounds: 5,
            trials: QUICK_TRIALS,
        }
    }
}

/// Timed runs of each arm.
const TRIALS: usize = 5;
/// Timed runs of each arm under `--quick`.
const QUICK_TRIALS: usize = 3;

/// Wall times of one arm's trials.
struct Timing {
    /// The median trial's seconds (`trials` is odd).
    secs: f64,
    min: f64,
    max: f64,
    trials: usize,
}

impl Timing {
    /// Runs `trial` `trials` times; each call returns its own timed seconds.
    fn of(trials: usize, mut trial: impl FnMut() -> f64) -> Self {
        Self::from_secs((0..trials).map(|_| trial()).collect())
    }

    /// The spread of an odd number of trials' seconds.
    fn from_secs(mut secs: Vec<f64>) -> Self {
        let trials = secs.len();
        secs.sort_by(f64::total_cmp);
        Self {
            secs: secs[trials / 2],
            min: secs[0],
            max: secs[trials - 1],
            trials,
        }
    }

    /// The spread keys every result object ends with.
    fn json(&self) -> String {
        format!(
            "\"trials\": {}, \"secs_min\": {:.6}, \"secs_max\": {:.6}",
            self.trials, self.min, self.max
        )
    }

    /// The spread as the console shows it.
    fn range(&self) -> String {
        format!("[{:.3}–{:.3}] s", self.min, self.max)
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
    let stream = qos_stream(w.feed_samples, w.users, w.services);
    let t = Timing::of(w.trials, || {
        let mut model = warmed_model(w);
        let start = Instant::now();
        for &(u, s, v) in &stream {
            black_box(model.observe(u, s, v));
        }
        start.elapsed().as_secs_f64()
    });
    let rate = w.feed_samples as f64 / t.secs;
    println!(
        "feed_sequential        {:>9} samples  {:>8.3} s  {:>12.0} samples/s  {}",
        w.feed_samples,
        t.secs,
        rate,
        t.range()
    );
    let _ = writeln!(
        out,
        "    \"feed_sequential\": {{\"samples\": {}, \"secs\": {:.6}, \"samples_per_sec\": {:.1}, {}}},",
        w.feed_samples,
        t.secs,
        rate,
        t.json()
    );
}

/// Samples per [`AmfTrainer::feed_batch`] call: one `POST /v1/observe` batch
/// of the serving plane.
const BATCH: usize = 256;

fn feed_batch(w: &Workload, out: &mut String) {
    let stream: Vec<(usize, usize, u64, f64)> = qos_stream(w.batch_samples, w.users, w.services)
        .into_iter()
        .enumerate()
        .map(|(t, (u, s, v))| (u, s, t as u64, v))
        .collect();
    let t = Timing::of(w.trials, || {
        let mut trainer = AmfTrainer::new(AmfConfig::response_time()).expect("valid config");
        *trainer.model_mut() = warmed_model(w);
        let start = Instant::now();
        for batch in stream.chunks(BATCH) {
            black_box(trainer.feed_batch(batch.iter().copied()));
        }
        start.elapsed().as_secs_f64()
    });
    let rate = w.batch_samples as f64 / t.secs;
    println!(
        "feed_batch ({BATCH})       {:>9} samples  {:>8.3} s  {:>12.0} samples/s  {}",
        w.batch_samples,
        t.secs,
        rate,
        t.range()
    );
    let _ = writeln!(
        out,
        "    \"feed_batch\": {{\"batch\": {BATCH}, \"samples\": {}, \"secs\": {:.6}, \"samples_per_sec\": {:.1}, {}}},",
        w.batch_samples,
        t.secs,
        rate,
        t.json()
    );
}

fn predict_and_rank(w: &Workload, out: &mut String) {
    let model = warmed_model(w);

    // Single-pair predict latency over a full scan.
    let pairs = w.users * w.services;
    let t = Timing::of(w.trials, || {
        let start = Instant::now();
        let mut acc = 0.0;
        for u in 0..w.users {
            for s in 0..w.services {
                acc += model.predict(u, s).unwrap_or(0.0);
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    });
    let ns_per_pair = t.secs * 1e9 / pairs as f64;
    println!(
        "predict_single         {:>9} pairs    {:>8.3} s  {:>9.1} ns/pair  {}",
        pairs,
        t.secs,
        ns_per_pair,
        t.range()
    );
    let _ = writeln!(
        out,
        "    \"predict_single\": {{\"pairs\": {}, \"secs\": {:.6}, \"ns_per_pair\": {:.2}, {}}},",
        pairs,
        t.secs,
        ns_per_pair,
        t.json()
    );

    // Per-pair baseline for candidate ranking: predict every service for one
    // user and argsort-select the top-k. This is what the adaptation loop
    // would do without a batch kernel.
    let naive = Timing::of(w.trials, || {
        let start = Instant::now();
        for q in 0..w.rank_queries {
            let user = q % w.users;
            let mut scored: Vec<(usize, f64)> = (0..w.services)
                .map(|s| (s, model.predict(user, s).unwrap_or(f64::INFINITY)))
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            scored.truncate(w.top_k);
            black_box(&scored);
        }
        start.elapsed().as_secs_f64()
    });
    let naive_rate = w.rank_queries as f64 / naive.secs;
    println!(
        "rank_naive_per_pair    {:>9} queries  {:>8.3} s  {:>12.1} queries/s  {}",
        w.rank_queries,
        naive.secs,
        naive_rate,
        naive.range()
    );
    let _ = writeln!(
        out,
        "    \"rank_naive_per_pair\": {{\"queries\": {}, \"services\": {}, \"k\": {}, \"secs\": {:.6}, \"queries_per_sec\": {:.2}, {}}},",
        w.rank_queries,
        w.services,
        w.top_k,
        naive.secs,
        naive_rate,
        naive.json()
    );

    // Batch candidate-ranking kernel.
    let rank = Timing::of(w.trials, || {
        let start = Instant::now();
        for q in 0..w.rank_queries {
            let user = q % w.users;
            black_box(rank_candidates(&model, user, w.top_k));
        }
        start.elapsed().as_secs_f64()
    });
    let rank_rate = w.rank_queries as f64 / rank.secs;
    let speedup = naive.secs / rank.secs;
    println!(
        "rank_candidates        {:>9} queries  {:>8.3} s  {:>12.1} queries/s  {}  ({speedup:.2}x vs per-pair)",
        w.rank_queries,
        rank.secs,
        rank_rate,
        rank.range()
    );
    let _ = writeln!(
        out,
        "    \"rank_candidates\": {{\"queries\": {}, \"services\": {}, \"k\": {}, \"secs\": {:.6}, \"queries_per_sec\": {:.2}, \"speedup_vs_per_pair\": {:.3}, {}}},",
        w.rank_queries,
        w.services,
        w.top_k,
        rank.secs,
        rank_rate,
        speedup,
        rank.json()
    );
}

/// `w.store_pairs` distinct cells of the workload grid, visited by a stride
/// coprime to its size so they spread over every user and service.
fn store_pairs(w: &Workload) -> Vec<(usize, usize)> {
    // Prime, so coprime to every grid size it does not divide.
    const STRIDE: usize = 7_919;
    let cells = w.users * w.services;
    assert!(w.store_pairs <= cells && !cells.is_multiple_of(STRIDE));
    (0..w.store_pairs)
        .map(|k| {
            let cell = k * STRIDE % cells;
            (cell / w.services, cell % w.services)
        })
        .collect()
}

/// `w.store_pairs` distinct pairs of a random stream over the workload
/// grid, with ids issued in order of first appearance by a [`Registry`] per
/// side, as the service issues them to `user-N` / `svc-N` names.
fn arrival_pairs(w: &Workload) -> Vec<(usize, usize)> {
    let (mut users, mut services) = (Registry::new(), Registry::new());
    let mut seen = HashSet::with_capacity(w.store_pairs);
    let mut pairs = Vec::with_capacity(w.store_pairs);
    // Four draws per pair leave enough distinct pairs on either workload.
    let mut stream = qos_stream(4 * w.store_pairs, w.users, w.services).into_iter();
    while pairs.len() < w.store_pairs {
        let (u, s, _) = stream.next().expect("enough distinct pairs");
        let pair = (
            users.join(&format!("user-{u}")),
            services.join(&format!("svc-{s}")),
        );
        if seen.insert(pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Times upserts of new pairs, refreshes and `get`s over `pairs`, and
/// writes them as the result `name`.
fn store(w: &Workload, name: &str, pairs: &[(usize, usize)], out: &mut String) {
    let n = pairs.len();
    let mut phases: [Vec<f64>; 3] = Default::default();
    let t = Timing::of(w.trials, || {
        let mut store = ObservationStore::new();
        let start = Instant::now();
        for (k, &(u, s)) in pairs.iter().enumerate() {
            store.upsert(u, s, k as u64, 1.0);
        }
        let inserted = Instant::now();
        for (k, &(u, s)) in pairs.iter().enumerate() {
            store.upsert(u, s, (n + k) as u64, 2.0);
        }
        let refreshed = Instant::now();
        for &(u, s) in pairs {
            black_box(store.get(u, s));
        }
        let done = Instant::now();
        assert_eq!(store.len(), n);
        for (phase, secs) in
            phases
                .iter_mut()
                .zip([inserted - start, refreshed - inserted, done - refreshed])
        {
            phase.push(secs.as_secs_f64());
        }
        (done - start).as_secs_f64()
    });
    let [new, refresh, get] = phases.map(|secs| Timing::from_secs(secs).secs * 1e9 / n as f64);
    println!(
        "{name:<22} {:>9} pairs    {:>8.3} s  {new:.1} / {refresh:.1} / {get:.1} ns new / refresh / get  {}",
        n,
        t.secs,
        t.range()
    );
    let _ = writeln!(
        out,
        "    \"{name}\": {{\"pairs\": {n}, \"secs\": {:.6}, \"upsert_new_ns\": {new:.2}, \"upsert_refresh_ns\": {refresh:.2}, \"get_ns\": {get:.2}, {}}},",
        t.secs,
        t.json()
    );
}

/// Names per registry in the `registry` arm: the paper's service count.
const REGISTRY_NAMES: usize = 4_500;

fn registry(w: &Workload, out: &mut String) {
    let names: Vec<String> = (0..REGISTRY_NAMES).map(|s| format!("svc-{s}")).collect();
    let misses: Vec<String> = (REGISTRY_NAMES..2 * REGISTRY_NAMES)
        .map(|s| format!("svc-{s}"))
        .collect();
    let mut phases: [Vec<f64>; 4] = Default::default();
    let t = Timing::of(w.trials, || {
        let mut secs = [0.0; 4];
        for _ in 0..w.registry_rounds {
            let mut registry = Registry::new();
            let start = Instant::now();
            for name in &names {
                black_box(registry.join(name));
            }
            let joined = Instant::now();
            for name in &names {
                black_box(registry.join(name));
            }
            let rejoined = Instant::now();
            for name in &names {
                black_box(registry.resolve(name));
            }
            let resolved = Instant::now();
            for name in &misses {
                black_box(registry.resolve(name));
            }
            let done = Instant::now();
            assert_eq!(registry.len(), REGISTRY_NAMES);
            for (sum, phase) in secs.iter_mut().zip([
                joined - start,
                rejoined - joined,
                resolved - rejoined,
                done - resolved,
            ]) {
                *sum += phase.as_secs_f64();
            }
        }
        for (phase, secs) in phases.iter_mut().zip(secs) {
            phase.push(secs);
        }
        secs.iter().sum()
    });
    let ops = (w.registry_rounds * REGISTRY_NAMES) as f64;
    let [join_new, join_known, hit, miss] =
        phases.map(|secs| Timing::from_secs(secs).secs * 1e9 / ops);
    println!(
        "registry               {:>9} names    {:>8.3} s  {join_new:.1} / {join_known:.1} / {hit:.1} / {miss:.1} ns join new / known, resolve hit / miss  {}",
        REGISTRY_NAMES,
        t.secs,
        t.range()
    );
    let _ = writeln!(
        out,
        "    \"registry\": {{\"names\": {REGISTRY_NAMES}, \"rounds\": {}, \"secs\": {:.6}, \"join_new_ns\": {join_new:.2}, \"join_known_ns\": {join_known:.2}, \"resolve_hit_ns\": {hit:.2}, \"resolve_miss_ns\": {miss:.2}, {}}}",
        w.registry_rounds,
        t.secs,
        t.json()
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
        "bench-report: {} users x {} services, dimension {}, {} trials per arm{}",
        w.users,
        w.services,
        AmfConfig::response_time().dimension,
        w.trials,
        if quick { " (quick)" } else { "" }
    );

    let mut results = String::new();
    feed_sequential(&w, &mut results);
    feed_batch(&w, &mut results);
    predict_and_rank(&w, &mut results);
    store(&w, "store", &store_pairs(&w), &mut results);
    store(&w, "store_arrival", &arrival_pairs(&w), &mut results);
    registry(&w, &mut results);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"amf-bench-core/v6\",");
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
