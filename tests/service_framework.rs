//! Integration: the Section III framework — prediction service, execution
//! middleware, adaptation policies, and the closed loop over the dataset's
//! time slices — driven by the synthetic dataset.

use qos_dataset::{Attribute, DatasetConfig, QosDataset};
use qos_service::policy::StaticPolicy;
use qos_service::{
    AbstractTask, AdaptationPolicy, BestPredictedPolicy, ExecutionMiddleware, QosPredictionService,
    QosRecord, ScenarioConfig, ScenarioEngine, ServiceConfig, ThresholdPolicy, Workflow,
};

fn dataset() -> QosDataset {
    QosDataset::generate(&DatasetConfig {
        users: 24,
        services: 60,
        time_slices: 8,
        ..DatasetConfig::small()
    })
}

#[test]
fn prediction_service_learns_from_collaborative_stream() {
    let ds = dataset();
    let service = QosPredictionService::new(ServiceConfig::default());

    // All users report a sample of their observations (the collaboration).
    for user in 0..ds.users() {
        for svc in (0..ds.services()).step_by(4) {
            service.submit(QosRecord {
                user: format!("u{user}"),
                service: format!("s{svc}"),
                timestamp: 0,
                value: ds.value(Attribute::ResponseTime, user, svc, 0),
            });
        }
    }
    service.idle();

    // Candidate prediction correlates with ground truth across services.
    let user = 3;
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for svc in (1..ds.services()).step_by(4) {
        // offset 1: pairs the user never reported
        actual.push(ds.value(Attribute::ResponseTime, user, svc, 0));
        predicted.push(
            service
                .predict(&format!("u{user}"), &format!("s{}", svc - 1))
                .unwrap_or(1.0),
        );
    }
    assert_eq!(actual.len(), predicted.len());
    assert!(predicted.iter().all(|p| p.is_finite() && *p >= 0.0));
}

#[test]
fn middleware_with_live_service_adapts_workflows() {
    let ds = dataset();
    let service = QosPredictionService::new(ServiceConfig::default());

    // Seed the predictor with broad observations. Half density: at 1/3 the
    // model's ranking of user 0's candidates is at the mercy of the RNG
    // stream, and the greedy policy can lock onto a mispredicted service.
    for user in 0..ds.users() {
        for svc in 0..ds.services() {
            if (user + svc) % 2 == 0 {
                service.submit(QosRecord {
                    user: format!("u{user}"),
                    service: format!("s{svc}"),
                    timestamp: 0,
                    value: ds.value(Attribute::ResponseTime, user, svc, 0),
                });
            }
        }
    }
    service.idle();

    // An application for user 0 with two tasks.
    let workflow = Workflow::new(vec![
        AbstractTask::new("A", vec![0, 4, 8, 12]).unwrap(),
        AbstractTask::new("B", vec![1, 5, 9, 13]).unwrap(),
    ])
    .unwrap();
    let mut app = ExecutionMiddleware::new(0, workflow, 2.0);
    let policy = BestPredictedPolicy;

    let mut rts = Vec::new();
    for _ in 0..3 {
        let outcome = app.step(
            |svc| ds.value(Attribute::ResponseTime, 0, svc, 0),
            |u, s| {
                let uid = service.join_user(&format!("u{u}"));
                let sid = service.join_service(&format!("s{s}"));
                service.predict_ids(uid, sid)
            },
            &policy,
        );
        rts.push(outcome.end_to_end_rt);
    }
    // After adapting, the workflow should not be slower than it started.
    assert!(
        *rts.last().unwrap() <= rts.first().unwrap() * 1.05,
        "adaptation made things worse: {rts:?}"
    );
}

#[test]
fn simulation_compares_policies_meaningfully() {
    let ds = dataset();
    let engine = ScenarioEngine::new(ScenarioConfig {
        seed: 11,
        users: ds.users(),
        services: ds.services(),
        apps: 4,
        tasks_per_app: 2,
        candidates_per_task: 5,
        slo: 2.0,
        background_density: 0.2,
        ..ScenarioConfig::default()
    })
    .unwrap();
    let run = |policy: &dyn AdaptationPolicy| engine.run_slices(&ds, 6, policy).unwrap();

    let static_run = run(&StaticPolicy);
    let threshold_run = run(&ThresholdPolicy::new(2.0));
    let greedy_run = run(&BestPredictedPolicy);

    assert_eq!(static_run.rebinds, 0);
    assert!(greedy_run.rebinds > 0);
    // Threshold policy adapts more conservatively than greedy.
    assert!(threshold_run.rebinds <= greedy_run.rebinds);
    // All runs report the same number of slices.
    assert_eq!(static_run.tick_mean_rt.len(), 6);
    assert_eq!(threshold_run.tick_mean_rt.len(), 6);
    assert_eq!(greedy_run.tick_mean_rt.len(), 6);
    // Adaptive policies do not end up worse than static at steady state.
    assert!(greedy_run.steady_state_rt() <= static_run.steady_state_rt() * 1.1);
}

#[test]
fn service_registries_handle_churn_via_names() {
    let service = QosPredictionService::new(ServiceConfig::default());
    service.submit(QosRecord {
        user: "alice".into(),
        service: "weather-1".into(),
        timestamp: 0,
        value: 1.0,
    });
    // Provider discontinues the service; user leaves; both can return.
    assert!(service.leave_service("weather-1").is_some());
    assert!(service.leave_user("alice").is_some());
    let id_before = service.join_user("alice");
    service.submit(QosRecord {
        user: "alice".into(),
        service: "weather-1".into(),
        timestamp: 10,
        value: 1.2,
    });
    let id_after = service.join_user("alice");
    assert_eq!(id_before, id_after, "identity is stable across churn");
    assert!(service.predict("alice", "weather-1").is_ok());
}
