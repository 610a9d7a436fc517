//! Integration: batched-vs-sequential parity.
//!
//! The headline correctness artifact of batched ingestion: on a fixed-seed
//! stream, the end state of `AmfTrainer::feed_batch` is not merely "close"
//! to the sequential model's — factors, EMA trackers, windowed accuracy,
//! drift alarms and the update count are bit-for-bit equal at every batch
//! split, because each batch is fed in stream order on the calling thread.

mod support;

use amf_core::{AmfConfig, AmfModel, AmfTrainer};
use qos_metrics::AccuracySummary;
use support::{batched_trainer, factor_mismatch, qos_stream, sequential_reference, StreamSpec};

fn batched(stream: &[(usize, usize, f64)], batch: usize) -> AmfModel {
    batched_trainer(AmfConfig::response_time(), stream, batch)
        .model()
        .clone()
}

#[test]
fn feed_batch_equals_sequential_at_every_batch_split() {
    let stream = qos_stream(StreamSpec::default_parity());
    let reference = sequential_reference(AmfConfig::response_time(), &stream);
    for batch in [1usize, 7, 256, stream.len()] {
        let model = batched(&stream, batch);
        assert_eq!(
            factor_mismatch(&reference, &model),
            None,
            "at batch {batch}"
        );
        assert_eq!(model.update_count(), stream.len() as u64);
        // Telemetry is pinned to the oracle too: the windowed accuracy and
        // the drift sentinel's alarm counts, not just the factors.
        assert_eq!(
            model.windowed_accuracy(),
            reference.windowed_accuracy(),
            "windowed accuracy at batch {batch}"
        );
        assert_eq!(
            model.drift_sentinel().alarms(),
            reference.drift_sentinel().alarms(),
            "drift alarms at batch {batch}"
        );
    }
}

#[test]
fn parity_is_deterministic_across_three_runs() {
    let stream = qos_stream(StreamSpec::default_parity());
    let first = batched(&stream, 256);
    for run in 1..3 {
        let again = batched(&stream, 256);
        assert_eq!(factor_mismatch(&first, &again), None, "run {run}");
    }
}

#[test]
fn end_of_stream_mae_matches_sequential() {
    let spec = StreamSpec::default_parity();
    let stream = qos_stream(spec);
    let reference = sequential_reference(AmfConfig::response_time(), &stream);
    let model = batched(&stream, 256);

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
    let (seq_mae, batch_mae) = (score(&reference), score(&model));
    assert!(seq_mae.is_finite() && seq_mae > 0.0);
    // Bitwise parity implies the MAEs agree to the last ulp; the tolerance
    // is only here so the assertion reads as the acceptance criterion.
    assert!(
        (seq_mae - batch_mae).abs() <= 1e-12 * seq_mae.max(1.0),
        "sequential MAE {seq_mae} vs batched MAE {batch_mae}"
    );
}

#[test]
fn trainer_batch_path_preserves_replay_behaviour() {
    // The trainer-level batch path must leave the observation store (and
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
    let mut batched = AmfTrainer::new(AmfConfig::response_time()).unwrap();
    assert_eq!(
        batched.feed_batch(timestamped.iter().copied()),
        timestamped.len()
    );

    assert_eq!(sequential.store().len(), batched.store().len());
    assert_eq!(sequential.now(), batched.now());
    assert_eq!(factor_mismatch(sequential.model(), batched.model()), None);

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
    batched.replay_until_converged(options);
    assert_eq!(factor_mismatch(sequential.model(), batched.model()), None);
}
