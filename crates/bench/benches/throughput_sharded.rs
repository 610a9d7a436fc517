//! Online-update ingestion throughput: sequential [`amf_core::AmfModel`]
//! versus the engine at K ∈ {1, 2, 4, 8} shards, in both parity (in-thread,
//! bitwise-exact: K changes nothing) and relaxed (K lock-free workers)
//! consistency.
//!
//! Reports samples/sec per configuration (printed directly, since that is
//! the quantity the scalability claim is about) and times one full
//! feed+drain pass per K under Criterion.
//!
//! The relaxed speedup is bounded by the physical core count: on a
//! single-core host every K degenerates to sequential throughput minus
//! coordination overhead; K=4 reaching ≥2× the K=1 rate requires ≥4 cores.
//! The parity tests (`tests/engine_parity.rs`) guarantee parity-mode
//! *results* are identical at every K, and `tests/relaxed_parity.rs` bounds
//! the relaxed lane's accuracy gap, so this bench is purely about
//! wall-clock.

use amf_core::{AmfConfig, AmfModel, Consistency, EngineOptions, ShardedEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qos_dataset::{DatasetConfig, QosDataset};
use std::hint::black_box;
use std::time::Instant;

/// Workload: one dense slice of a synthetic WS-DREAM-like matrix, in
/// row-major stream order.
fn workload() -> Vec<(usize, usize, f64)> {
    let dataset = QosDataset::generate(&DatasetConfig {
        users: 60,
        services: 200,
        time_slices: 1,
        ..DatasetConfig::small()
    });
    let matrix = dataset.slice_matrix(qos_dataset::Attribute::ResponseTime, 0);
    let mut samples = Vec::with_capacity(matrix.rows() * matrix.cols());
    for u in 0..matrix.rows() {
        for s in 0..matrix.cols() {
            samples.push((u, s, matrix.get(u, s)));
        }
    }
    samples
}

fn run_sharded(samples: &[(usize, usize, f64)], shards: usize) -> AmfModel {
    run_with(samples, EngineOptions::with_shards(shards))
}

fn run_relaxed(samples: &[(usize, usize, f64)], shards: usize) -> AmfModel {
    run_with(
        samples,
        EngineOptions::with_consistency(shards, Consistency::Relaxed),
    )
}

fn run_with(samples: &[(usize, usize, f64)], options: EngineOptions) -> AmfModel {
    let mut engine =
        ShardedEngine::new(AmfConfig::response_time(), options).expect("valid engine options");
    engine.feed_batch(samples.iter().copied());
    engine.into_model()
}

fn run_sequential(samples: &[(usize, usize, f64)]) -> AmfModel {
    let mut model = AmfModel::new(AmfConfig::response_time()).expect("valid config");
    for &(u, s, v) in samples {
        model.observe(u, s, v);
    }
    model
}

fn bench_throughput(c: &mut Criterion) {
    let samples = workload();
    let n = samples.len();
    println!(
        "throughput_sharded: {} samples/pass, {} cores available",
        n,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );

    // Samples/sec summary (best of 3 passes per configuration).
    let rate = |f: &dyn Fn() -> AmfModel| -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                n as f64 / start.elapsed().as_secs_f64()
            })
            .fold(0.0, f64::max)
    };
    let base = rate(&|| run_sequential(&samples));
    println!("  sequential      : {base:>12.0} samples/sec (1.00x)");
    for shards in [1usize, 2, 4, 8] {
        let r = rate(&|| run_sharded(&samples, shards));
        println!(
            "  sharded K={shards:<2}    : {r:>12.0} samples/sec ({:.2}x)",
            r / base
        );
    }
    for shards in [1usize, 2, 4, 8] {
        let r = rate(&|| run_relaxed(&samples, shards));
        println!(
            "  relaxed K={shards:<2}    : {r:>12.0} samples/sec ({:.2}x)",
            r / base
        );
    }

    let mut group = c.benchmark_group("throughput_sharded");
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| run_sequential(&samples)));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| b.iter(|| run_sharded(&samples, shards)),
        );
        group.bench_with_input(
            BenchmarkId::new("relaxed", shards),
            &shards,
            |b, &shards| b.iter(|| run_relaxed(&samples, shards)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
