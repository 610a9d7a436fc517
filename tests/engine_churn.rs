//! Integration: ShardedEngine under churn — users and services joining
//! (`ensure_user`/`ensure_service`) between feed waves — must lose no
//! updates, panic nowhere, and stay bit-identical to the sequential model
//! under parity (within the relaxed ε under relaxed consistency).

mod support;

use amf_core::{AmfConfig, AmfModel, EngineOptions, ShardedEngine};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
use support::{factor_mismatch, qos_stream, sequential_reference, StreamSpec};

#[test]
fn joins_interleaved_with_feeding_lose_nothing() {
    let spec = StreamSpec {
        users: 12,
        services: 30,
        samples: 4_000,
        seed: 3,
    };
    let stream = qos_stream(spec);

    // Sequential reference: same interleaving of joins and observations.
    let mut reference = AmfModel::new(AmfConfig::response_time()).unwrap();
    let mut engine =
        ShardedEngine::new(AmfConfig::response_time(), EngineOptions::with_shards(4)).unwrap();

    for (wave, chunk) in stream.chunks(500).enumerate() {
        // A churn wave between feed waves: brand-new ids join with no
        // observation (no drain in between).
        let new_user = spec.users + wave;
        let new_service = spec.services + 2 * wave;
        engine.ensure_user(new_user);
        engine.ensure_service(new_service);
        reference.ensure_user(new_user);
        reference.ensure_service(new_service);
        engine.feed_batch(chunk.iter().copied());
        for &(u, s, v) in chunk {
            reference.observe(u, s, v);
        }
    }
    let final_model = engine.into_model();
    assert_eq!(final_model.update_count(), stream.len() as u64);
    // Joined-but-never-observed entities exist and are predictable.
    assert!(final_model.num_users() > spec.users);
    assert!(final_model.num_services() > spec.services);
    assert!(final_model
        .predict(final_model.num_users() - 1, final_model.num_services() - 1)
        .is_some());
    assert_eq!(factor_mismatch(&reference, &final_model), None);
}

#[test]
fn join_of_entity_with_queued_samples_is_benign() {
    // ensure_* of an id that already has samples applied must not reset
    // its factors.
    let spec = StreamSpec {
        users: 6,
        services: 10,
        samples: 2_000,
        seed: 99,
    };
    let stream = qos_stream(spec);
    let reference = sequential_reference(AmfConfig::response_time(), &stream);

    let mut engine =
        ShardedEngine::new(AmfConfig::response_time(), EngineOptions::with_shards(3)).unwrap();
    for chunk in stream.chunks(100) {
        engine.feed_batch(chunk.iter().copied());
        for u in 0..spec.users {
            engine.ensure_user(u); // all hot ids, repeatedly, mid-flight
        }
        for s in 0..spec.services {
            engine.ensure_service(s);
        }
    }
    let got = engine.into_model();
    assert_eq!(factor_mismatch(&reference, &got), None);
}

#[test]
fn snapshots_between_churn_waves_are_consistent() {
    let spec = StreamSpec {
        users: 9,
        services: 14,
        samples: 1_500,
        seed: 21,
    };
    let stream = qos_stream(spec);
    let mut engine =
        ShardedEngine::new(AmfConfig::response_time(), EngineOptions::with_shards(2)).unwrap();

    let mut fed = 0u64;
    for chunk in stream.chunks(300) {
        engine.feed_batch(chunk.iter().copied());
        fed += chunk.len() as u64;
        let snap = engine.snapshot();
        assert_eq!(snap.update_count(), fed, "snapshot lost updates");
        // The snapshot is a plain sequential model: it keeps learning on its
        // own without touching the engine.
        let mut offline = snap;
        offline.observe(0, 0, 1.0);
        assert_eq!(offline.update_count(), fed + 1);
    }
    assert_eq!(engine.processed(), stream.len() as u64);
}

#[test]
fn service_layer_churn_with_sharded_ingestion() {
    // Names join, leave, and rejoin around sharded batch ingestion; identity
    // stays stable and every record lands in the model and database.
    let service = QosPredictionService::new(ServiceConfig {
        shards: 4,
        ..Default::default()
    });
    let record = |u: usize, s: usize, t: u64, v: f64| QosRecord {
        user: format!("u{u}"),
        service: format!("s{s}"),
        timestamp: t,
        value: v,
    };

    let mut total = 0u64;
    for wave in 0..5u64 {
        let joined = service.join_user(&format!("churn-{wave}"));
        let batch: Vec<QosRecord> = (0..200u64)
            .map(|k| {
                let t = wave * 200 + k;
                record(
                    (k % 7) as usize,
                    (k % 11) as usize,
                    t,
                    0.3 + (k % 9) as f64 * 0.5,
                )
            })
            .collect();
        total += batch.len() as u64;
        assert_eq!(service.submit_batch(batch), 200);
        assert!(service.leave_service(&format!("s{}", wave % 11)).is_some());
        // The joined-but-idle user is immediately predictable.
        assert!(service
            .predict(&format!("churn-{wave}"), "s0")
            .unwrap()
            .is_finite());
        assert_eq!(service.join_user(&format!("churn-{wave}")), joined);
    }
    let stats = service.stats();
    assert_eq!(stats.updates, total, "updates lost during churn");
    assert_eq!(stats.accepted, total, "guard must admit every clean record");
    assert_eq!(stats.rejected, 0);
    assert_eq!(service.database().observation_count() as u64, total);
}

#[test]
fn churn_with_worker_kill_stays_in_mae_band() {
    // The fault-injected churn variant: users join and services leave
    // between waves while a relaxed worker is killed mid-update. Recovery
    // must lose nothing, and the faulted service's windowed MRE and NMAE
    // stay within the relaxed lane's ε (`tests/relaxed_parity.rs`) of a
    // sequential twin fed the same waves — at-least-once recovery rules out
    // a bitwise band.
    use amf_core::{Consistency, FaultPlan, KillPhase};
    use std::sync::Arc;

    let clean = QosPredictionService::new(ServiceConfig::default());
    let faulted = QosPredictionService::new(ServiceConfig {
        shards: 3,
        consistency: Consistency::Relaxed,
        ..Default::default()
    });
    faulted.inject_fault_plan(Arc::new(FaultPlan::new(17).kill_worker(
        1,
        0,
        KillPhase::Mid,
    )));

    let record = |u: usize, s: usize, t: u64, v: f64| QosRecord {
        user: format!("u{u}"),
        service: format!("s{s}"),
        timestamp: t,
        value: v,
    };
    let mut total = 0u64;
    for wave in 0..5u64 {
        for svc in [&clean, &faulted] {
            svc.join_user(&format!("churn-{wave}"));
        }
        let batch: Vec<QosRecord> = (0..200u64)
            .map(|k| {
                let t = wave * 200 + k;
                record(
                    (k % 7) as usize,
                    (k % 11) as usize,
                    t,
                    0.3 + (k % 9) as f64 * 0.5,
                )
            })
            .collect();
        total += batch.len() as u64;
        assert_eq!(clean.submit_batch(batch.clone()), 200);
        assert_eq!(faulted.submit_batch(batch), 200);
        for svc in [&clean, &faulted] {
            svc.leave_service(&format!("s{}", wave % 11));
        }
    }

    let faults = faulted.fault_stats();
    assert_eq!(faults.worker_panics, 1, "the scripted kill must fire");
    assert_eq!(faults.respawns, 1);
    assert_eq!(faults.samples_lost, 0);
    let stats = faulted.stats();
    assert_eq!(stats.updates, total, "recovery lost updates under churn");
    assert_eq!(stats.updates, stats.accepted);
    assert!(!stats.degraded);

    for u in 0..7 {
        for s in 0..11 {
            let p = faulted.predict_ids(u, s).unwrap();
            assert!(p.is_finite(), "({u},{s}): {p}");
        }
    }
    let (want, got) = (clean.windowed_accuracy(), faulted.windowed_accuracy());
    for (metric, want, got) in [
        ("MRE", want.mre.unwrap(), got.mre.unwrap()),
        ("NMAE", want.nmae.unwrap(), got.nmae.unwrap()),
    ] {
        eprintln!("churn+kill {metric}: faulted {got:.5} vs sequential {want:.5}");
        assert!(
            (got - want).abs() <= 0.04_f64.max(0.25 * want),
            "{metric} drift after recovery: faulted {got} vs sequential {want}"
        );
    }
}

#[test]
fn many_engines_start_and_stop_cleanly() {
    // Engines must always shut down cleanly (Drop path included), even
    // when dropped with samples still buffered in the relaxed lane.
    use amf_core::Consistency;

    let stream = qos_stream(StreamSpec {
        users: 5,
        services: 8,
        samples: 400,
        seed: 55,
    });
    for consistency in [Consistency::Parity, Consistency::Relaxed] {
        for shards in [1usize, 2, 8] {
            for _ in 0..3 {
                let mut engine = ShardedEngine::new(
                    AmfConfig::response_time(),
                    EngineOptions::with_consistency(shards, consistency),
                )
                .unwrap();
                engine.feed_batch(stream.iter().copied());
                drop(engine); // no drain
            }
        }
    }
}
