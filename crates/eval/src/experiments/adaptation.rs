//! E-SIM — end-to-end runtime adaptation (paper Section III / Fig. 1, as a
//! measurable experiment).
//!
//! The paper motivates QoS prediction by its effect on adaptation decisions
//! but never quantifies the loop end to end; this experiment closes it:
//! service-based applications run on the execution middleware, report
//! observations to the AMF-backed prediction service, and rebind tasks per
//! policy. It plays the dataset's time slices on the closed-loop scenario
//! engine ([`ScenarioEngine::run_slices`]), once per policy: never adapting,
//! SLA-threshold-triggered adaptation, and greedy best-predicted adaptation.

use crate::Scale;
use qos_service::policy::StaticPolicy;
use qos_service::{
    AdaptationPolicy, BestPredictedPolicy, RunMetrics, ScenarioConfig, ScenarioEngine,
    ThresholdPolicy,
};

/// E-SIM result: one run per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationResult {
    /// The engine configuration used.
    pub config: ScenarioConfig,
    /// Dataset time slices run (one tick each).
    pub slices: usize,
    /// Never-adapt baseline.
    pub static_run: RunMetrics,
    /// SLA-threshold-triggered adaptation.
    pub threshold_run: RunMetrics,
    /// Greedy best-predicted adaptation.
    pub greedy_run: RunMetrics,
}

/// Runs the three policies over the scale's dataset on the scenario engine,
/// with a workload sized to the scale.
pub fn run(scale: &Scale) -> AdaptationResult {
    let dataset = super::dataset_for(scale);
    let config = ScenarioConfig {
        seed: scale.seed,
        users: dataset.users(),
        services: dataset.services(),
        apps: 8.min(scale.users / 2).max(1),
        tasks_per_app: 3,
        candidates_per_task: 5.min(scale.services / 3).max(1),
        slo: 2.0,
        background_density: 0.12,
        ..ScenarioConfig::default()
    };
    let slices = scale.time_slices.min(10);
    let engine = ScenarioEngine::new(config).expect("scaled config is valid");
    let run = |policy: &dyn AdaptationPolicy| {
        engine
            .run_slices(&dataset, slices, policy)
            .expect("scaled config fits the dataset")
    };
    AdaptationResult {
        config,
        slices,
        static_run: run(&StaticPolicy),
        threshold_run: run(&ThresholdPolicy::new(config.slo)),
        greedy_run: run(&BestPredictedPolicy),
    }
}

impl AdaptationResult {
    /// Steady-state improvement of greedy adaptation over never adapting,
    /// in percent (positive = adaptation helps).
    pub fn greedy_improvement_percent(&self) -> f64 {
        100.0 * (self.static_run.steady_state_rt() - self.greedy_run.steady_state_rt())
            / self.static_run.steady_state_rt()
    }

    /// Renders the policy comparison and the per-slice series.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# E-SIM: runtime adaptation, {} apps x {} tasks x {} candidates, {} slices, SLA {}s\n",
            self.config.apps,
            self.config.tasks_per_app,
            self.config.candidates_per_task,
            self.slices,
            self.config.slo
        );
        let mut table = crate::report::TextTable::new(vec![
            "policy".into(),
            "mean_rt".into(),
            "steady_rt".into(),
            "adaptations".into(),
            "violations".into(),
        ]);
        for report in [&self.static_run, &self.threshold_run, &self.greedy_run] {
            table.row(vec![
                report.policy.to_string(),
                format!("{:.3}", report.mean_end_to_end_rt),
                format!("{:.3}", report.steady_state_rt()),
                report.rebinds.to_string(),
                report.violations.to_string(),
            ]);
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "\n# greedy adaptation improves steady-state RT by {:.1}% over static\n",
            self.greedy_improvement_percent()
        ));
        let x: Vec<f64> = (0..self.slices).map(|t| t as f64).collect();
        out.push_str(&crate::report::render_multi_series(
            "slice",
            &x,
            &[
                ("static", self.static_run.tick_mean_rt.clone()),
                ("threshold", self.threshold_run.tick_mean_rt.clone()),
                ("best_predicted", self.greedy_run.tick_mean_rt.clone()),
            ],
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> AdaptationResult {
        run(&Scale {
            users: 24,
            services: 60,
            time_slices: 6,
            repetitions: 1,
            seed: 31,
        })
    }

    #[test]
    fn all_policies_complete() {
        let r = result();
        assert_eq!(r.static_run.tick_mean_rt.len(), 6);
        assert_eq!(r.threshold_run.tick_mean_rt.len(), 6);
        assert_eq!(r.greedy_run.tick_mean_rt.len(), 6);
        assert_eq!(r.static_run.rebinds, 0);
        assert!(r.greedy_run.rebinds > 0);
    }

    #[test]
    fn adaptation_does_not_hurt_steady_state() {
        let r = result();
        assert!(
            r.greedy_run.steady_state_rt() <= r.static_run.steady_state_rt() * 1.05,
            "greedy {} vs static {}",
            r.greedy_run.steady_state_rt(),
            r.static_run.steady_state_rt()
        );
        assert!(r.greedy_improvement_percent().is_finite());
    }

    #[test]
    fn render_has_all_policies_and_series() {
        let text = result().render();
        for needle in [
            "static",
            "threshold",
            "best_predicted",
            "steady_rt",
            "E-SIM",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
