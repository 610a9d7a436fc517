//! The QoS prediction service as a long-running component (paper Fig. 3):
//! queued input handling, online updating, prediction serving,
//! user/service churn, and model checkpointing.
//!
//! Run with: `cargo run --release --example prediction_service`

use amf_core::persistence;
use qos_dataset::{Attribute, DatasetConfig, QosDataset};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};

fn main() {
    let dataset = QosDataset::generate(&DatasetConfig {
        users: 30,
        services: 80,
        ..DatasetConfig::small()
    });
    let service = QosPredictionService::new(ServiceConfig::default());

    // Input handling: users' QoS managers queue observations (from any
    // thread); `drain_inputs` applies whatever is queued as one batch.
    let mut pushed = 0;
    for user in 0..dataset.users() {
        for svc in (user % 7..dataset.services()).step_by(7) {
            service.offer(QosRecord {
                user: format!("planetlab-node-{user}"),
                service: format!("ws://provider/{svc}"),
                timestamp: 0,
                value: dataset.value(Attribute::ResponseTime, user, svc, 0),
            });
            pushed += 1;
        }
    }
    let processed = service.drain_inputs();
    println!("ingested {processed} of {pushed} queued observations");

    // Online updating during idle time.
    let report = service.idle();
    println!(
        "idle refinement: {} replays in {:.2?} (converged: {})",
        report.iterations, report.elapsed, report.converged
    );

    // Prediction interface: candidate services this user never invoked.
    let user = "planetlab-node-3";
    println!("\ncandidate ranking for {user}:");
    let mut ranked: Vec<(String, f64)> = (0..10)
        .map(|svc| {
            let name = format!("ws://provider/{svc}");
            let rt = service.predict(user, &name).unwrap_or(f64::INFINITY);
            (name, rt)
        })
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (name, rt) in ranked.iter().take(5) {
        println!("  {rt:.3}s  {name}");
    }

    // Churn: a provider discontinues a service; a new user joins.
    service.leave_service("ws://provider/0");
    let new_user = service.join_user("planetlab-node-new");
    println!("\nnew user joined with dense id {new_user}");
    let stats = service.stats();
    println!(
        "registry: {} users, {} services, {} model updates ({} accepted, {} quarantined)",
        stats.users, stats.services, stats.updates, stats.accepted, stats.rejected
    );

    // Checkpoint the model; a restarted service restores it losslessly.
    let path = std::env::temp_dir().join("amf_service_checkpoint.amf");
    // NOTE: in a real deployment you would checkpoint on a schedule; here we
    // snapshot once via a fresh trainer round-trip.
    let mut buffer = Vec::new();
    {
        // The service API intentionally hides the model; rebuild an
        // equivalent snapshot from the public prediction surface is not
        // possible, so we demonstrate persistence on a standalone model.
        let mut model =
            amf_core::AmfModel::new(amf_core::AmfConfig::response_time()).expect("valid config");
        for user in 0..5 {
            for svc in 0..5 {
                model.observe(
                    user,
                    svc,
                    dataset.value(Attribute::ResponseTime, user, svc, 0),
                );
            }
        }
        persistence::save(&model, &mut buffer).expect("in-memory save succeeds");
        std::fs::write(&path, &buffer).expect("temp dir writable");
    }
    let restored = persistence::load_file(&path).expect("checkpoint is valid");
    println!(
        "\ncheckpoint round-trip: {} bytes, restored model has {} users / {} services",
        buffer.len(),
        restored.num_users(),
        restored.num_services()
    );
}
