//! The execution middleware: invoke, observe, report, adapt (paper Fig. 3,
//! left panel).
//!
//! One [`ExecutionMiddleware`] instance plays the role of a BPEL engine
//! hosting one service-based application for one user: each step it invokes
//! the bound component services, the QoS manager observes the real QoS and
//! reports it to the prediction service, and the adaptation-policy layer
//! decides rebindings using predicted QoS for the candidate services.

use crate::policy::{AdaptationPolicy, PolicyContext};
use crate::workflow::Workflow;

/// What happened in one execution step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// End-to-end response time of this execution (sum over tasks).
    pub end_to_end_rt: f64,
    /// Observations made: `(service_id, observed_value)` per task, in task
    /// order — the caller forwards these to the QoS prediction service.
    pub observations: Vec<(usize, f64)>,
    /// Number of tasks whose observed QoS violated the SLA threshold.
    pub violations: usize,
}

/// A single application instance under middleware control.
#[derive(Debug, Clone)]
pub struct ExecutionMiddleware {
    /// Dense user id of the application owner (rows of the QoS matrix).
    user: usize,
    workflow: Workflow,
    /// Per-task SLA threshold used for violation accounting.
    sla_threshold: f64,
}

impl ExecutionMiddleware {
    /// Creates a middleware instance for `user` running `workflow`.
    pub fn new(user: usize, workflow: Workflow, sla_threshold: f64) -> Self {
        Self {
            user,
            workflow,
            sla_threshold,
        }
    }

    /// The owning user's dense id.
    pub fn user(&self) -> usize {
        self.user
    }

    /// The current workflow state.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// Executes one step:
    ///
    /// 1. invokes every bound service, observing ground-truth QoS via
    ///    `invoke(service_id) -> value`;
    /// 2. asks `policy` per task whether to rebind, feeding it the observed
    ///    value and candidate predictions from
    ///    `predict(user, service_id) -> Option<value>`;
    /// 3. applies the rebindings.
    pub fn step<I, P>(
        &mut self,
        mut invoke: I,
        mut predict: P,
        policy: &dyn AdaptationPolicy,
    ) -> StepOutcome
    where
        I: FnMut(usize) -> f64,
        P: FnMut(usize, usize) -> Option<f64>,
    {
        // Phase 1: invoke and observe.
        let mut observations = Vec::with_capacity(self.workflow.len());
        let mut end_to_end = 0.0;
        let mut violations = 0;
        let observed: Vec<f64> = self
            .workflow
            .tasks()
            .iter()
            .map(|task| {
                let service = task.bound_service();
                let value = invoke(service);
                observations.push((service, value));
                end_to_end += value;
                if value > self.sla_threshold {
                    violations += 1;
                }
                value
            })
            .collect();

        // Phase 2: decide and apply adaptations.
        let user = self.user;
        for (task, &observed_value) in self.workflow.tasks_mut().iter_mut().zip(&observed) {
            let predicted: Vec<Option<f64>> = task
                .candidates
                .iter()
                .map(|&candidate| predict(user, candidate))
                .collect();
            let ctx = PolicyContext {
                observed_current: Some(observed_value),
                predicted: &predicted,
                bound: task.bound,
            };
            if let Some(new_binding) = policy.decide(&ctx) {
                // A faulty policy's out-of-range index keeps the binding.
                let _ = task.rebind(new_binding);
            }
        }

        StepOutcome {
            end_to_end_rt: end_to_end,
            observations,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestPredictedPolicy, StaticPolicy, ThresholdPolicy};
    use crate::workflow::AbstractTask;

    fn workflow() -> Workflow {
        Workflow::new(vec![
            AbstractTask::new("A", vec![0, 1]).unwrap(),
            AbstractTask::new("B", vec![2, 3]).unwrap(),
        ])
        .unwrap()
    }

    /// Ground truth: service id -> RT; services 0 and 2 are slow.
    fn truth(service: usize) -> f64 {
        match service {
            0 => 5.0,
            1 => 0.5,
            2 => 4.0,
            3 => 0.4,
            _ => 1.0,
        }
    }

    #[test]
    fn step_observes_all_bound_services() {
        let mut mw = ExecutionMiddleware::new(7, workflow(), 10.0);
        let outcome = mw.step(truth, |_, _| None, &StaticPolicy);
        assert_eq!(outcome.observations, vec![(0, 5.0), (2, 4.0)]);
        assert_eq!(outcome.end_to_end_rt, 9.0);
        assert_eq!(mw.workflow().bound_services(), vec![0, 2]);
        assert_eq!(outcome.violations, 0);
        assert_eq!(mw.user(), 7);
    }

    #[test]
    fn accurate_predictions_drive_good_adaptation() {
        let mut mw = ExecutionMiddleware::new(0, workflow(), 2.0);
        let policy = ThresholdPolicy::new(2.0);
        // Perfect predictions = ground truth.
        let outcome1 = mw.step(truth, |_, s| Some(truth(s)), &policy);
        assert_eq!(
            mw.workflow().bound_services(),
            vec![1, 3],
            "both slow tasks should rebind"
        );
        assert_eq!(outcome1.violations, 2);
        // After adaptation the workflow runs on the fast candidates.
        let outcome2 = mw.step(truth, |_, s| Some(truth(s)), &policy);
        assert_eq!(outcome2.end_to_end_rt, 0.9);
        assert_eq!(outcome2.violations, 0);
    }

    #[test]
    fn inaccurate_predictions_cause_improper_adaptation() {
        // The paper's failure mode: predictions inverted -> the policy picks
        // the slow candidate.
        let mut mw = ExecutionMiddleware::new(0, workflow(), 2.0);
        let policy = ThresholdPolicy::new(2.0);
        let lying = |_: usize, s: usize| Some(10.0 - truth(s)); // inverted ranking
        mw.step(truth, lying, &policy);
        // Bound services unchanged or switched badly; execute again:
        let outcome = mw.step(truth, lying, &policy);
        assert!(
            outcome.end_to_end_rt > 2.0,
            "bad predictions should not reach the fast configuration"
        );
    }

    #[test]
    fn static_policy_never_adapts() {
        let mut mw = ExecutionMiddleware::new(0, workflow(), 0.1);
        for _ in 0..3 {
            mw.step(truth, |_, s| Some(truth(s)), &StaticPolicy);
            assert_eq!(mw.workflow().bound_services(), vec![0, 2]);
        }
    }

    #[test]
    fn best_predicted_converges_to_optimum_and_stays() {
        let mut mw = ExecutionMiddleware::new(0, workflow(), 10.0);
        let policy = BestPredictedPolicy;
        mw.step(truth, |_, s| Some(truth(s)), &policy);
        assert_eq!(mw.workflow().bound_services(), vec![1, 3]);
        mw.step(truth, |_, s| Some(truth(s)), &policy);
        assert_eq!(
            mw.workflow().bound_services(),
            vec![1, 3],
            "optimum is stable"
        );
    }

    #[test]
    fn violations_counted_per_task() {
        let mut mw = ExecutionMiddleware::new(0, workflow(), 4.5);
        let o = mw.step(truth, |_, _| None, &StaticPolicy);
        assert_eq!(o.violations, 1); // only service 0 (5.0) exceeds 4.5
    }
}
