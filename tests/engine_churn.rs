//! Integration: batched ingestion under churn — users and services joining
//! (`ensure_user`/`ensure_service`) between `AmfTrainer::feed_batch` waves —
//! must lose no updates, panic nowhere, and stay bit-identical to the
//! sequential model.

mod support;

use amf_core::{AmfConfig, AmfModel, AmfTrainer};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
use support::{factor_mismatch, feed_in_batches, qos_stream, sequential_reference, StreamSpec};

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
    let mut trainer = AmfTrainer::new(AmfConfig::response_time()).unwrap();

    for (wave, chunk) in stream.chunks(500).enumerate() {
        // A churn wave between feed waves: brand-new ids join with no
        // observation.
        let new_user = spec.users + wave;
        let new_service = spec.services + 2 * wave;
        trainer.model_mut().ensure_user(new_user);
        trainer.model_mut().ensure_service(new_service);
        reference.ensure_user(new_user);
        reference.ensure_service(new_service);
        feed_in_batches(&mut trainer, chunk, 256);
        for &(u, s, v) in chunk {
            reference.observe(u, s, v);
        }
    }
    let final_model = trainer.model();
    assert_eq!(final_model.update_count(), stream.len() as u64);
    // Joined-but-never-observed entities exist and are predictable.
    assert!(final_model.num_users() > spec.users);
    assert!(final_model.num_services() > spec.services);
    assert!(final_model
        .predict(final_model.num_users() - 1, final_model.num_services() - 1)
        .is_some());
    assert_eq!(factor_mismatch(&reference, final_model), None);
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

    let mut trainer = AmfTrainer::new(AmfConfig::response_time()).unwrap();
    for chunk in stream.chunks(100) {
        feed_in_batches(&mut trainer, chunk, 100);
        for u in 0..spec.users {
            trainer.model_mut().ensure_user(u); // all hot ids, repeatedly
        }
        for s in 0..spec.services {
            trainer.model_mut().ensure_service(s);
        }
    }
    assert_eq!(factor_mismatch(&reference, trainer.model()), None);
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
    let mut trainer = AmfTrainer::new(AmfConfig::response_time()).unwrap();

    let mut fed = 0u64;
    for chunk in stream.chunks(300) {
        feed_in_batches(&mut trainer, chunk, 256);
        fed += chunk.len() as u64;
        let snap = trainer.model().clone();
        assert_eq!(snap.update_count(), fed, "snapshot lost updates");
        // The snapshot is a plain sequential model: it keeps learning on its
        // own without touching the trainer.
        let mut offline = snap;
        offline.observe(0, 0, 1.0);
        assert_eq!(offline.update_count(), fed + 1);
    }
    assert_eq!(trainer.model().update_count(), stream.len() as u64);
}

#[test]
fn service_layer_churn_with_sharded_ingestion() {
    // Names join, leave, and rejoin around batch ingestion; identity stays
    // stable and every record lands in the model and the live store.
    let service = QosPredictionService::new(ServiceConfig::default());
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
    // Records (k % 7, k % 11) cover all 77 pairs; each holds its newest.
    assert_eq!(service.live_observations(), 7 * 11);
}
