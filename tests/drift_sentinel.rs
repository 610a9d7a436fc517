//! Deterministic drift-sentinel behavior, end to end: the Page-Hinkley
//! sentinel inside [`AmfModel`] must stay silent on a stationary QoS stream
//! (zero false alarms) and must fire when the stream's regime genuinely
//! shifts. The sharded engine must carry the per-worker alarm counts back
//! into the merged model, and a prediction service ingesting in small
//! batches must keep one sentinel across batches whatever its shard count.
//!
//! The drifting phase is a *bimodal* regime (each sample is either ~0.1s or
//! ~16s): a pure level shift is absorbed by online SGD within a couple of
//! thousand samples and only bumps the tracked error transiently, which is
//! exactly the adaptation the paper's EMA weighting is for — the sentinel
//! is tuned to ignore it. A regime no single prediction can fit keeps the
//! relative error persistently elevated, and that is what must alarm.
//!
//! Everything here is seeded LCG arithmetic on a single thread (or a
//! deterministic shard routing), so these tests are exact: an alarm count is
//! asserted with `==`/`>`, never with tolerance.

use amf_core::{AmfConfig, AmfModel, EngineOptions, ShardedEngine};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};

const USERS: usize = 12;
const SERVICES: usize = 20;
const PHASE: usize = 12_000;
const SEED: u64 = 0x000D_21F7_5EED;

/// Deterministic LCG over a small entity grid: `level + uniform(0, spread)`
/// seconds per sample.
fn stationary_stream(seed: u64, n: usize) -> Vec<(usize, usize, f64)> {
    stream(seed, n, |next| 1.0 + (next % 1_000) as f64 / 1_000.0)
}

/// The drifting regime: samples alternate pseudo-randomly between a fast
/// mode (~0.1s) and a slow mode (~16s), so the per-entity relative error
/// stays high no matter what the model converges to.
fn bimodal_stream(seed: u64, n: usize) -> Vec<(usize, usize, f64)> {
    stream(seed, n, |next| {
        if next % 2 == 0 {
            0.05 + (next % 200) as f64 / 1_000.0
        } else {
            14.0 + (next % 4_000) as f64 / 1_000.0
        }
    })
}

fn stream(seed: u64, n: usize, value: impl Fn(u64) -> f64) -> Vec<(usize, usize, f64)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    (0..n)
        .map(|_| {
            let user = next() as usize % USERS;
            let service = next() as usize % SERVICES;
            (user, service, value(next()))
        })
        .collect()
}

#[test]
fn stationary_stream_never_alarms() {
    let mut model = AmfModel::new(AmfConfig::response_time()).expect("valid config");
    for (user, service, value) in stationary_stream(SEED, PHASE) {
        model.observe(user, service, value);
    }
    assert_eq!(
        model.drift_sentinel().alarms(),
        (0, 0),
        "false alarm on a stationary stream"
    );
    assert!(model.drift_sentinel().healthy());
    let accuracy = model.windowed_accuracy();
    assert!(accuracy.mre.is_some() && accuracy.nmae.is_some());
}

#[test]
fn regime_shift_fires_the_sentinel() {
    let mut model = AmfModel::new(AmfConfig::response_time()).expect("valid config");
    for (user, service, value) in stationary_stream(SEED, PHASE) {
        model.observe(user, service, value);
    }
    assert_eq!(model.drift_sentinel().alarms(), (0, 0));

    let mut fired_while_unhealthy = false;
    for (user, service, value) in bimodal_stream(SEED ^ 0xFF, PHASE) {
        model.observe(user, service, value);
        if !model.drift_sentinel().healthy() {
            fired_while_unhealthy = true;
        }
    }
    let (user_alarms, service_alarms) = model.drift_sentinel().alarms();
    assert!(
        user_alarms > 0 && service_alarms > 0,
        "regime shift went undetected: user={user_alarms} service={service_alarms}"
    );
    assert!(
        fired_while_unhealthy,
        "healthy() never dropped during the drifting phase"
    );
}

#[test]
fn engine_merges_per_shard_alarm_counts() {
    let mut engine = ShardedEngine::new(
        AmfConfig::response_time(),
        EngineOptions {
            shards: 2,
            ..EngineOptions::default()
        },
    )
    .expect("valid engine options");
    engine.feed_batch(stationary_stream(SEED, PHASE));
    engine.feed_batch(bimodal_stream(SEED ^ 0xFF, PHASE));
    let model: AmfModel = engine.into_model();
    let (user_alarms, service_alarms) = model.drift_sentinel().alarms();
    assert!(
        user_alarms + service_alarms > 0,
        "per-shard sentinel alarms were lost in the merge"
    );
    // The merged accuracy window is full after 24k admitted samples.
    assert_eq!(
        model.windowed_accuracy().window_len,
        amf_core::ACCURACY_WINDOW
    );
}

#[test]
fn sharded_parity_service_keeps_its_sentinel_across_batches() {
    // Serve-sized 8-record batches: a service that restarted its detectors
    // per batch (one engine per batch, fresh per-worker sentinels) would
    // never accumulate enough evidence to alarm at `shards: 4`.
    let alarms = |shards: usize| {
        let service = QosPredictionService::new(ServiceConfig {
            shards,
            ..ServiceConfig::default()
        });
        let records: Vec<QosRecord> = stationary_stream(SEED, PHASE)
            .into_iter()
            .chain(bimodal_stream(SEED ^ 0xFF, PHASE))
            .enumerate()
            .map(|(t, (u, s, value))| QosRecord {
                user: format!("user-{u}"),
                service: format!("svc-{s}"),
                timestamp: t as u64,
                value,
            })
            .collect();
        for batch in records.chunks(8) {
            service.submit_batch(batch.to_vec());
        }
        service.drift_alarms()
    };
    let sequential = alarms(1);
    let sharded = alarms(4);
    assert!(
        sharded.0 + sharded.1 > 0,
        "regime shift went undetected by a 4-shard service: {sharded:?}"
    );
    assert_eq!(sharded, sequential, "shard count changed the alarm counts");
}
