//! Integration: fault tolerance end to end — deterministic worker crashes
//! in the relaxed lane mid-stream must lose no accepted samples and stay
//! within the relaxed ε of the sequential reference; a worker that keeps
//! dying is abandoned with exact loss accounting; dirty input streams must
//! be quarantined with exact accounting and train to (at least) the clean
//! model's accuracy; prediction must stay finite and error-free throughout.

mod support;

use amf_core::{AmfConfig, Consistency, EngineOptions, FaultPlan, KillPhase, ShardedEngine};
use qos_service::{PredictionSource, QosPredictionService, QosRecord, ServiceConfig};
use std::sync::Arc;
use support::{
    inject_garbage, model_mae, planted_stream, qos_stream, sequential_reference, StreamSpec,
};

/// A relaxed service with `shards` workers — the only lane with workers for
/// a fault plan to kill.
fn relaxed_service(shards: usize) -> QosPredictionService {
    QosPredictionService::new(ServiceConfig {
        shards,
        consistency: Consistency::Relaxed,
        ..Default::default()
    })
}

#[test]
fn predictions_stay_finite_during_faulted_ingestion() {
    let service = relaxed_service(3);
    // Each submit_batch builds a fresh engine whose per-worker job counter
    // restarts at 0, so the kills target job 0 of the first batch's
    // workers. Kills fire once across the whole plan lifetime.
    service.inject_fault_plan(Arc::new(
        FaultPlan::new(3)
            .kill_worker(0, 0, KillPhase::Mid)
            .kill_worker(2, 0, KillPhase::Before),
    ));
    let record = |u: usize, s: usize, t: u64, v: f64| QosRecord {
        user: format!("u{u}"),
        service: format!("s{s}"),
        timestamp: t,
        value: v,
    };

    let mut total = 0u64;
    for wave in 0..6u64 {
        let batch: Vec<QosRecord> = (0..250u64)
            .map(|k| {
                let t = wave * 250 + k;
                record(
                    (k % 8) as usize,
                    (k % 12) as usize,
                    t,
                    0.2 + (k % 10) as f64 * 0.4,
                )
            })
            .collect();
        total += batch.len() as u64;
        assert_eq!(service.submit_batch(batch), 250);
        // Mid-recovery prediction: every pair (known, unknown, mixed) must
        // come back finite, never an error.
        for u in 0..10 {
            for s in 0..14 {
                let p = service.predict_degraded(&format!("u{u}"), &format!("s{s}"));
                assert!(p.value.is_finite(), "wave {wave} u{u}/s{s}: {p:?}");
            }
        }
    }
    let stats = service.stats();
    assert_eq!(stats.updates, total, "accepted samples lost to crashes");
    assert_eq!(stats.accepted, total);
    assert!(!stats.degraded, "all crashes must have been recovered");
    let faults = service.fault_stats();
    assert_eq!(faults.worker_panics, 2);
    assert_eq!(faults.respawns, 2);
    assert_eq!(faults.samples_lost, 0);
    assert_eq!(faults.abandoned_workers, 0);
    assert!(
        faults.jobs_replayed > 0,
        "recovery must retry the in-flight samples"
    );
}

#[test]
fn five_percent_garbage_trains_within_two_percent_of_clean_mae() {
    let spec = StreamSpec {
        users: 12,
        services: 18,
        samples: 6_000,
        seed: 11,
    };
    let clean = planted_stream(spec);
    let (dirty, injected) = inject_garbage(&clean, 0.05, 42);
    assert!(injected > 0, "garbage injection produced nothing");
    assert_eq!(dirty.len(), clean.len() + injected);

    let record = |(u, s, v): (usize, usize, f64), t: u64| QosRecord {
        user: format!("u{u}"),
        service: format!("s{s}"),
        timestamp: t,
        value: v,
    };
    let train = |stream: &[(usize, usize, f64)]| {
        let svc = QosPredictionService::new(ServiceConfig {
            shards: 2,
            ..Default::default()
        });
        let batch: Vec<QosRecord> = stream
            .iter()
            .enumerate()
            .map(|(t, &s)| record(s, t as u64))
            .collect();
        svc.submit_batch(batch);
        svc
    };

    let clean_svc = train(&clean);
    let dirty_svc = train(&dirty);

    // Exact accounting: every record is either accepted or quarantined.
    let clean_stats = clean_svc.stats();
    let dirty_stats = dirty_svc.stats();
    assert_eq!(clean_stats.rejected, 0);
    assert_eq!(clean_stats.accepted, clean.len() as u64);
    assert_eq!(dirty_stats.rejected, injected as u64, "all garbage caught");
    assert_eq!(
        dirty_stats.accepted,
        clean.len() as u64,
        "no clean sample lost"
    );
    assert_eq!(
        dirty_stats.accepted + dirty_stats.rejected,
        dirty.len() as u64
    );
    assert_eq!(dirty_stats.updates, clean.len() as u64);

    // Accuracy: the quarantine removes the garbage entirely, so the dirty
    // model must be within 2% of the clean model's MAE (here: identical
    // stream after screening).
    let clean_mae = {
        let mut total = 0.0;
        let mut n = 0;
        for u in 0..spec.users {
            for s in 0..spec.services {
                if let Some(p) = clean_svc.predict_ids(u, s) {
                    total += (p - support::planted_truth(u, s)).abs();
                    n += 1;
                }
            }
        }
        total / n as f64
    };
    let dirty_mae = {
        let mut total = 0.0;
        let mut n = 0;
        for u in 0..spec.users {
            for s in 0..spec.services {
                if let Some(p) = dirty_svc.predict_ids(u, s) {
                    total += (p - support::planted_truth(u, s)).abs();
                    n += 1;
                }
            }
        }
        total / n as f64
    };
    assert!(
        dirty_mae <= clean_mae * 1.02 + 1e-12,
        "dirty MAE {dirty_mae} vs clean MAE {clean_mae}"
    );
}

#[test]
fn mutated_stream_drop_dup_reorder_still_trains() {
    // Transport-level faults (paper-external, but what a real deployment
    // sees): lost, duplicated, and reordered observations. The engine must
    // ingest the mutated stream fully; the model stays finite everywhere.
    let spec = StreamSpec {
        users: 8,
        services: 15,
        samples: 3_000,
        seed: 5,
    };
    let stream = planted_stream(spec);
    let plan = FaultPlan::new(99)
        .drop_rate(0.05)
        .duplicate_rate(0.05)
        .reorder_window(6);
    let mutated = plan.mutate_stream(&stream);
    assert_ne!(mutated.len(), 0);

    let mut engine =
        ShardedEngine::new(AmfConfig::response_time(), EngineOptions::with_shards(2)).unwrap();
    engine.feed_batch(mutated.iter().copied());
    engine.drain();
    let model = engine.into_model();
    assert_eq!(model.update_count(), mutated.len() as u64);
    // Duplicates and reordering shift which samples trained, but accuracy
    // on the planted structure stays in a sane band.
    let mae = model_mae(&model, spec.users, spec.services);
    assert!(mae.is_finite() && mae < 2.0, "MAE {mae} out of band");
}

#[test]
fn relaxed_mode_survives_kill_and_stall_plans() {
    // Every single-worker kill, in either phase, with a stall on a second
    // worker. Recovery is at-least-once resume from progress watermarks (the
    // relaxed lane keeps no journal), so instead of bitwise parity we
    // assert: nothing lost, every sample counted once, finite predictions,
    // and accuracy drift bounded against the sequential reference.
    let spec = StreamSpec {
        users: 10,
        services: 24,
        samples: 2_400,
        seed: 77,
    };
    let stream = qos_stream(spec);
    let reference = sequential_reference(AmfConfig::response_time(), &stream);
    let reference_mre = reference
        .windowed_accuracy()
        .mre
        .expect("window is populated");

    for phase in [KillPhase::Before, KillPhase::Mid] {
        for victim in 0..3 {
            let fault = Arc::new(
                FaultPlan::new(0xFA_17)
                    .kill_worker(victim, 2, phase)
                    .stall_worker((victim + 1) % 3, 5, std::time::Duration::from_millis(2)),
            );
            let mut engine = ShardedEngine::from_model_with_plan(
                amf_core::AmfModel::new(AmfConfig::response_time()).unwrap(),
                EngineOptions {
                    relaxed_batch: 256,
                    ..EngineOptions::with_consistency(3, Consistency::Relaxed)
                },
                Some(fault),
            )
            .unwrap();
            engine.feed_batch(stream.iter().copied());
            engine.drain();
            let faults = engine.fault_stats();
            assert_eq!(faults.worker_panics, 1, "worker {victim} {phase:?}");
            assert_eq!(faults.respawns, 1, "worker {victim} {phase:?}");
            assert_eq!(faults.samples_lost, 0, "worker {victim} {phase:?}");
            assert!(!engine.is_degraded());
            let recovered = engine.into_model();
            // At-least-once application, exactly-once counting.
            assert_eq!(recovered.update_count(), stream.len() as u64);
            for u in 0..spec.users {
                for s in 0..spec.services {
                    let p = recovered.predict(u, s).expect("pair universe is dense");
                    assert!(p.is_finite(), "worker {victim} {phase:?} ({u},{s}): {p}");
                }
            }
            let mre = recovered
                .windowed_accuracy()
                .mre
                .expect("window is populated");
            // Drift bound: this stream is short (2.4k samples over 10
            // users), so the merged accuracy window is noisier than the 8k
            // golden stream `tests/relaxed_parity.rs` pins at ±0.04; a
            // genuine lost update or torn read still lands far outside
            // half the reference MRE.
            assert!(
                (mre - reference_mre).abs() <= 0.08_f64.max(0.5 * reference_mre),
                "worker {victim} {phase:?}: relaxed MRE {mre} drifted from {reference_mre}"
            );
        }
    }
}

#[test]
fn relaxed_mode_ingests_mutated_stream_fully() {
    // Transport faults (drop/duplicate/reorder) on top of the relaxed lane:
    // the duplicated and reordered samples are exactly the perturbations
    // relaxed consistency is robust to by design.
    let spec = StreamSpec {
        users: 8,
        services: 15,
        samples: 3_000,
        seed: 5,
    };
    let stream = planted_stream(spec);
    let plan = FaultPlan::new(99)
        .drop_rate(0.05)
        .duplicate_rate(0.05)
        .reorder_window(6);
    let mutated = plan.mutate_stream(&stream);
    assert_ne!(mutated.len(), 0);

    let mut engine = ShardedEngine::new(
        AmfConfig::response_time(),
        EngineOptions {
            relaxed_batch: 512,
            ..EngineOptions::with_consistency(4, Consistency::Relaxed)
        },
    )
    .unwrap();
    engine.feed_batch(mutated.iter().copied());
    engine.drain();
    let model = engine.into_model();
    assert_eq!(model.update_count(), mutated.len() as u64);
    let mae = model_mae(&model, spec.users, spec.services);
    assert!(mae.is_finite() && mae < 2.0, "MAE {mae} out of band");
}

#[test]
fn abandoned_worker_degrades_but_serves() {
    // A worker that dies more often than the respawn budget allows is
    // abandoned: the rest of its partition is lost, the engine reports
    // degraded — but the service keeps ingesting and predicting.
    let service = relaxed_service(2);
    let mut hammer = FaultPlan::new(13);
    for k in 0..64 {
        hammer = hammer.kill_worker(0, k, KillPhase::Before);
    }
    service.inject_fault_plan(Arc::new(hammer));
    let batch: Vec<QosRecord> = (0..2_000u64)
        .map(|k| QosRecord {
            user: format!("u{}", k % 5),
            service: format!("s{}", k % 9),
            timestamp: k,
            value: 0.5 + (k % 3) as f64,
        })
        .collect();
    service.submit_batch(batch);
    let stats = service.stats();
    let faults = service.fault_stats();
    assert!(faults.worker_panics > 1);
    assert!(
        faults.abandoned_workers > 0,
        "a worker past its respawn budget must be counted abandoned"
    );
    assert!(stats.degraded, "lost samples must flip the degraded flag");
    assert!(faults.samples_lost > 0);
    assert_eq!(
        stats.updates + faults.samples_lost,
        stats.accepted,
        "every accepted sample is either applied or counted lost"
    );
    // Degraded or not: predictions remain finite for every known pair.
    for u in 0..5 {
        for s in 0..9 {
            let p = service.predict_degraded(&format!("u{u}"), &format!("s{s}"));
            assert!(p.value.is_finite(), "u{u}/s{s}: {p:?}");
            assert_ne!(p.source, PredictionSource::Default, "data exists");
        }
    }
}
