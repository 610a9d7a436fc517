//! Integration: sequential-vs-engine parity.
//!
//! The headline correctness artifact of the engine's parity lane: on a
//! fixed-seed stream the end state is not merely "close" to the sequential
//! trainer's — factors, EMA trackers, windowed accuracy and drift alarms
//! are bit-for-bit equal at every shard count, because parity applies the
//! stream in order on the calling thread whatever `shards` says.

mod support;

use amf_core::{AmfConfig, AmfModel, AmfTrainer, EngineOptions, ShardedEngine};
use qos_metrics::AccuracySummary;
use support::{factor_mismatch, qos_stream, sequential_reference, StreamSpec};

fn run_sharded(stream: &[(usize, usize, f64)], options: EngineOptions) -> AmfModel {
    let mut engine =
        ShardedEngine::new(AmfConfig::response_time(), options).expect("valid options");
    engine.feed_batch(stream.iter().copied());
    engine.into_model()
}

#[test]
fn sharded_equals_sequential_at_every_shard_count() {
    let stream = qos_stream(StreamSpec::default_parity());
    let reference = sequential_reference(AmfConfig::response_time(), &stream);
    for shards in [1usize, 2, 4, 8] {
        let sharded = run_sharded(&stream, EngineOptions::with_shards(shards));
        assert_eq!(
            factor_mismatch(&reference, &sharded),
            None,
            "at {shards} shards"
        );
        assert_eq!(sharded.update_count(), stream.len() as u64);
        // Telemetry is pinned to the oracle too: the windowed accuracy and
        // the drift sentinel's alarm counts, not just the factors.
        assert_eq!(
            sharded.windowed_accuracy(),
            reference.windowed_accuracy(),
            "windowed accuracy at {shards} shards"
        );
        assert_eq!(
            sharded.drift_sentinel().alarms(),
            reference.drift_sentinel().alarms(),
            "drift alarms at {shards} shards"
        );
    }
}

#[test]
fn parity_is_deterministic_across_three_runs() {
    let stream = qos_stream(StreamSpec::default_parity());
    let options = EngineOptions::with_shards(4);
    let first = run_sharded(&stream, options);
    for run in 1..3 {
        let again = run_sharded(&stream, options);
        assert_eq!(factor_mismatch(&first, &again), None, "run {run}");
    }
}

#[test]
fn end_of_stream_mae_matches_sequential() {
    let spec = StreamSpec::default_parity();
    let stream = qos_stream(spec);
    let reference = sequential_reference(AmfConfig::response_time(), &stream);
    let sharded = run_sharded(&stream, EngineOptions::with_shards(4));

    // Score both models against the tail of the stream (the freshest truth).
    let tail = &stream[stream.len() - 1_000..];
    let actual: Vec<f64> = tail.iter().map(|&(_, _, v)| v).collect();
    let score = |m: &AmfModel| {
        let predicted: Vec<f64> = tail
            .iter()
            .map(|&(u, s, _)| m.predict(u, s).expect("observed pair"))
            .collect();
        AccuracySummary::evaluate(&actual, &predicted)
            .expect("non-empty")
            .mae
    };
    let (seq_mae, shard_mae) = (score(&reference), score(&sharded));
    assert!(seq_mae.is_finite() && seq_mae > 0.0);
    // Bitwise parity implies the MAEs agree to the last ulp; the tolerance
    // is only here so the assertion reads as the acceptance criterion.
    assert!(
        (seq_mae - shard_mae).abs() <= 1e-12 * seq_mae.max(1.0),
        "sequential MAE {seq_mae} vs sharded MAE {shard_mae}"
    );
}

#[test]
fn trainer_batch_path_preserves_replay_behaviour() {
    // The trainer-level sharded path must leave the observation store (and
    // thus idle-time replay) exactly as sequential feeding would.
    let spec = StreamSpec {
        users: 8,
        services: 16,
        samples: 600,
        seed: 13,
    };
    let stream = qos_stream(spec);
    let timestamped: Vec<(usize, usize, u64, f64)> = stream
        .iter()
        .enumerate()
        .map(|(k, &(u, s, v))| (u, s, k as u64, v))
        .collect();

    let mut sequential = AmfTrainer::new(AmfConfig::response_time()).unwrap();
    for &(u, s, t, v) in &timestamped {
        sequential.feed(u, s, t, v);
    }
    let mut sharded = AmfTrainer::new(AmfConfig::response_time()).unwrap();
    sharded
        .feed_batch_sharded(timestamped.iter().copied(), EngineOptions::with_shards(3))
        .unwrap();

    assert_eq!(sequential.store().len(), sharded.store().len());
    assert_eq!(sequential.now(), sharded.now());
    assert_eq!(factor_mismatch(sequential.model(), sharded.model()), None);

    // Replay draws from the same store with the same trainer RNG stream, so
    // even post-replay state stays identical.
    let options = amf_core::trainer::ReplayOptions {
        max_iterations: 2_000,
        min_iterations: 0,
        window: 500,
        tolerance: 1e-3,
        patience: 2,
    };
    sequential.replay_until_converged(options);
    sharded.replay_until_converged(options);
    assert_eq!(factor_mismatch(sequential.model(), sharded.model()), None);
}
