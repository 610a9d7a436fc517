//! Integration: fault tolerance end to end — dirty input streams must be
//! quarantined with exact accounting and train to (at least) the clean
//! model's accuracy, and a stream that lost, duplicated and reordered
//! samples in transport must still be ingested in full.

mod support;

use amf_core::{AmfConfig, FaultPlan};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
use support::{batched_trainer, inject_garbage, model_mae, planted_stream, StreamSpec};

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
        let svc = QosPredictionService::new(ServiceConfig::default());
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
    // sees): lost, duplicated, and reordered observations. The batch path
    // must ingest the mutated stream fully; the model stays finite
    // everywhere.
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

    let trainer = batched_trainer(AmfConfig::response_time(), &mutated, 256);
    let model = trainer.model();
    assert_eq!(model.update_count(), mutated.len() as u64);
    // Duplicates and reordering shift which samples trained, but accuracy
    // on the planted structure stays in a sane band.
    let mae = model_mae(model, spec.users, spec.services);
    assert!(mae.is_finite() && mae < 2.0, "MAE {mae} out of band");
}
