//! Closed-loop adaptation scenarios: phase-regime worlds driven through the
//! full MAPE-K loop, measured against a static-selection baseline.
//!
//! Each [`ScenarioSpec`] names a seeded [`qos_dataset::RegimeTimeline`]
//! (good / congested / lossy / recovery, plus churn storms, flash crowds,
//! regional outages, and correlated-outlier bursts). The [`ScenarioEngine`]
//! runs the same world twice:
//!
//! * **adaptive** — monitoring feeds a [`crate::adapt::Planner`]; when it
//!   plans, the Execute stage re-ranks every candidate via
//!   [`QosPredictionService::rank_candidates_ids`] and applies a
//!   [`ThresholdPolicy`] rebind with an improvement margin;
//! * **static** — the initial bindings never change ([`StaticPolicy`]),
//!   which is exactly what a system without runtime QoS prediction does.
//!
//! The difference in SLO-violation rate is the *adaptation gain* — the
//! system-level payoff the paper's framework exists to deliver. Outcomes
//! serialize to the committed `amf-scenario/v1` report; every draw is a pure
//! function of the seed, so the same seed reproduces the report byte for
//! byte.

use std::collections::BTreeMap;
use std::path::PathBuf;

use amf_core::{FaultContext, FaultPlan};
use qos_dataset::{RegimePhase, RegimeTimeline, RegimeWorld, RegimeWorldConfig};
use qos_obs::{FlightRecorder, Json, LogConfig, DEFAULT_MAX_LOG_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adapt::{Planner, PlannerConfig, PlannerObservation};
use crate::middleware::ExecutionMiddleware;
use crate::policy::{AdaptationPolicy, StaticPolicy, ThresholdPolicy};
use crate::prediction_service::{QosPredictionService, QosRecord, ServiceConfig};
use crate::workflow::{AbstractTask, Workflow};
use crate::ServiceError;
use qos_linalg::random::sample_indices;

/// Schema identifier of the scenario report.
pub const SCENARIO_SCHEMA: &str = "amf-scenario/v1";

/// One named scenario: a summary plus its phase timeline.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Stable scenario name (kebab-case, used by the CLI and CI gates).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The phase timeline, `(phase, ticks)` back to back.
    pub spans: Vec<(RegimePhase, u32)>,
}

/// The scenario catalog. `quick` shrinks every span (CI smoke / unit tests);
/// the full lengths generate the committed report.
///
/// `good` is the stationary control: a planner with working hysteresis must
/// issue **zero** plans (and therefore zero flaps) on it.
pub fn catalog(quick: bool) -> Vec<ScenarioSpec> {
    let u = if quick { 12 } else { 30 };
    use RegimePhase::*;
    vec![
        ScenarioSpec {
            name: "good",
            summary: "stationary control: no regime shift, planner must stay quiet",
            spans: vec![(Good, 4 * u)],
        },
        ScenarioSpec {
            name: "congested",
            summary: "sustained congestion hits stress-prone services",
            spans: vec![(Good, u), (Congested, 2 * u), (Good, u)],
        },
        ScenarioSpec {
            name: "lossy",
            summary: "lossy transport: retransmit tails spike observations",
            spans: vec![(Good, u), (Lossy, 2 * u), (Good, u)],
        },
        ScenarioSpec {
            name: "recovery",
            summary: "congestion followed by exponential relief",
            spans: vec![(Good, u), (Congested, u), (Recovery, 2 * u)],
        },
        ScenarioSpec {
            name: "flash-crowd",
            summary: "global load surge, stress-prone services slow most",
            spans: vec![(Good, u), (FlashCrowd, 2 * u), (Good, u)],
        },
        ScenarioSpec {
            name: "churn-storm",
            summary: "a seeded fraction of services goes dark mid-run",
            spans: vec![(Good, u), (ChurnStorm, 2 * u), (Good, u)],
        },
        ScenarioSpec {
            name: "regional-outage",
            summary: "one region's services time out entirely",
            spans: vec![(Good, u), (RegionalOutage, 2 * u), (Good, u)],
        },
        ScenarioSpec {
            name: "outlier-burst",
            summary: "correlated measurement garbage; actual QoS unaffected",
            spans: vec![(Good, u), (OutlierBurst, 2 * u), (Good, u)],
        },
        ScenarioSpec {
            name: "multi-phase",
            summary: "good -> congested -> lossy -> recovery, back to back",
            spans: vec![(Good, u), (Congested, u), (Lossy, u), (Recovery, u)],
        },
    ]
}

/// Looks a scenario up by name in the catalog.
///
/// # Errors
///
/// Returns [`ServiceError::InvalidConfig`] listing the known names.
pub fn find_scenario(name: &str, quick: bool) -> Result<ScenarioSpec, ServiceError> {
    let all = catalog(quick);
    all.iter().find(|s| s.name == name).cloned().ok_or_else(|| {
        let known: Vec<&str> = all.iter().map(|s| s.name).collect();
        ServiceError::InvalidConfig(format!(
            "unknown scenario '{name}' (known: {})",
            known.join(", ")
        ))
    })
}

/// Engine tuning: world dimensions, fleet shape, SLO, and planner knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Seed for the world, the fleet layout, and the model.
    pub seed: u64,
    /// Number of monitored users (rows of the QoS matrix).
    pub users: usize,
    /// Number of candidate services (columns).
    pub services: usize,
    /// Service regions (regional outages darken one).
    pub regions: usize,
    /// Applications under middleware control (each owned by one user).
    pub apps: usize,
    /// Abstract tasks per application.
    pub tasks_per_app: usize,
    /// Candidate services per task.
    pub candidates_per_task: usize,
    /// Per-task SLO on response time (seconds).
    pub slo: f64,
    /// Fraction of the user–service matrix observed per tick as background
    /// monitoring traffic.
    pub background_density: f64,
    /// Relative margin a re-rank must promise before a rebind fires.
    pub min_improvement: f64,
    /// A rebind that returns to the immediately-previous binding within this
    /// many ticks counts as a *flap*.
    pub flap_window: u32,
    /// Per-tick fleet violation rate at or below which the fleet counts as
    /// recovered (time-to-recover needs three consecutive such ticks).
    pub recover_threshold: f64,
    /// Planner thresholds and hysteresis.
    pub planner: PlannerConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            users: 12,
            services: 40,
            regions: 4,
            apps: 6,
            tasks_per_app: 2,
            candidates_per_task: 4,
            slo: 2.5,
            background_density: 0.08,
            min_improvement: 0.1,
            flap_window: 6,
            recover_threshold: 0.05,
            planner: PlannerConfig::default(),
        }
    }
}

impl ScenarioConfig {
    fn validate(&self) -> Result<(), ServiceError> {
        let bad = |msg: &str| Err(ServiceError::InvalidConfig(format!("scenario: {msg}")));
        if self.apps == 0 || self.apps > self.users {
            return bad("need 1 <= apps <= users");
        }
        if self.tasks_per_app == 0 || self.candidates_per_task == 0 {
            return bad("workflow shape must be non-degenerate");
        }
        if self.tasks_per_app * self.candidates_per_task > self.services {
            return bad("not enough services for disjoint candidate sets");
        }
        if !(self.slo.is_finite() && self.slo > 0.0) {
            return bad("slo must be positive");
        }
        if !(0.0 < self.background_density && self.background_density <= 1.0) {
            return bad("background_density must be in (0, 1]");
        }
        if !(0.0..1.0).contains(&self.min_improvement) {
            return bad("min_improvement must be in [0, 1)");
        }
        if !(0.0..1.0).contains(&self.recover_threshold) {
            return bad("recover_threshold must be in [0, 1)");
        }
        Ok(())
    }
}

/// Metrics of one run (one mode over one scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// `"adaptive"` or `"static"`.
    pub mode: &'static str,
    /// Task executions (apps × tasks × ticks).
    pub executions: u64,
    /// Task executions that violated the SLO.
    pub violations: u64,
    /// `violations / executions`.
    pub slo_violation_rate: f64,
    /// Mean end-to-end workflow RT across apps and ticks (seconds).
    pub mean_end_to_end_rt: f64,
    /// Rebinds the policy executed.
    pub rebinds: u64,
    /// Rebinds that returned to the immediately-previous binding within the
    /// flap window.
    pub flaps: u64,
    /// Ticks from the first disruptive phase's start until the fleet's
    /// per-tick violation rate stayed at or below the recover threshold for
    /// three consecutive ticks. `None` when it never recovered (or the
    /// scenario has no disruption).
    pub time_to_recover: Option<u32>,
    /// Plans the MAPE-K planner issued (0 in static mode).
    pub planner_plans: u64,
    /// `(user-side, service-side)` drift alarms raised after warm-up.
    pub drift_alarms: (u64, u64),
}

/// Both runs of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// The timeline it ran.
    pub spans: Vec<(RegimePhase, u32)>,
    /// Total ticks.
    pub ticks: u32,
    /// Planner-driven run.
    pub adaptive: RunMetrics,
    /// Never-rebind baseline.
    pub baseline: RunMetrics,
}

impl ScenarioOutcome {
    /// Absolute SLO-violation-rate reduction delivered by adaptation
    /// (positive = adaptive better).
    pub fn adaptation_gain(&self) -> f64 {
        self.baseline.slo_violation_rate - self.adaptive.slo_violation_rate
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Adaptive,
    Static,
}

/// Runs scenarios and aggregates their outcomes.
#[derive(Debug, Clone)]
pub struct ScenarioEngine {
    config: ScenarioConfig,
    flight_dir: Option<PathBuf>,
}

impl ScenarioEngine {
    /// Builds an engine.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidConfig`] for degenerate configs.
    pub fn new(config: ScenarioConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        Planner::new(config.planner)?;
        Ok(Self {
            config,
            flight_dir: None,
        })
    }

    /// Writes a per-scenario `amf-flight/v1` dump (`<dir>/<name>.flight.jsonl`)
    /// after each run: the global trace ring (guard quarantines, drift
    /// alarms) plus the run's outcome metrics — the same
    /// black-box format the serving plane dumps, so `amf-qos trace` reads
    /// both.
    #[must_use]
    pub fn with_flight_dir(mut self, dir: PathBuf) -> Self {
        self.flight_dir = Some(dir);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Runs one scenario in both modes over the same seeded world.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidConfig`] when the spec's timeline or a
    /// phase fault spec is invalid.
    pub fn run_scenario(&self, spec: &ScenarioSpec) -> Result<ScenarioOutcome, ServiceError> {
        let timeline = RegimeTimeline::new(spec.spans.clone())
            .map_err(|e| ServiceError::InvalidConfig(e.to_string()))?;
        let world_config = RegimeWorldConfig {
            users: self.config.users,
            services: self.config.services,
            regions: self.config.regions,
            seed: self.config.seed,
            ..Default::default()
        };
        let mut world = RegimeWorld::new(world_config, timeline.clone())
            .map_err(|e| ServiceError::InvalidConfig(e.to_string()))?;
        // A regional outage only measures anything when the fleet actually
        // depends on the darkened region: aim it at the region of the first
        // bound service (fleet construction is seed-only, so this stays
        // deterministic and identical across both modes).
        if spec
            .spans
            .iter()
            .any(|&(p, _)| p == RegimePhase::RegionalOutage)
        {
            if let Some(service) = self
                .build_fleet()
                .first()
                .and_then(|mw| mw.workflow().tasks().first().map(|t| t.bound_service()))
            {
                let aimed = RegimeWorldConfig {
                    outage_region: Some(world.region_of(service)),
                    ..world_config
                };
                world = RegimeWorld::new(aimed, timeline)
                    .map_err(|e| ServiceError::InvalidConfig(e.to_string()))?;
            }
        }
        let fault_plans = self.phase_fault_plans(spec)?;
        let adaptive = self.run_mode(spec, &world, &fault_plans, Mode::Adaptive);
        let baseline = self.run_mode(spec, &world, &fault_plans, Mode::Static);
        let outcome = ScenarioOutcome {
            name: spec.name.to_string(),
            spans: spec.spans.clone(),
            ticks: world.timeline().total_ticks(),
            adaptive,
            baseline,
        };
        self.dump_flight(&outcome);
        Ok(outcome)
    }

    /// Flight-records one finished scenario when a dump directory is set.
    fn dump_flight(&self, outcome: &ScenarioOutcome) {
        let Some(dir) = &self.flight_dir else {
            return;
        };
        let recorder = FlightRecorder::new(Some(LogConfig {
            path: dir.join(format!("{}.flight.jsonl", outcome.name)),
            max_bytes: DEFAULT_MAX_LOG_BYTES,
        }));
        let events = qos_obs::global().trace().events();
        let mut metrics = Json::obj();
        metrics
            .set("scenario", Json::Str(outcome.name.clone()))
            .set("ticks", Json::UInt(u64::from(outcome.ticks)))
            .set("adaptation_gain", Json::Num(outcome.adaptation_gain()))
            .set(
                "adaptive_slo_violation_rate",
                Json::Num(outcome.adaptive.slo_violation_rate),
            )
            .set(
                "static_slo_violation_rate",
                Json::Num(outcome.baseline.slo_violation_rate),
            )
            .set("rebinds", Json::UInt(outcome.adaptive.rebinds))
            .set("flaps", Json::UInt(outcome.adaptive.flaps))
            .set("planner_plans", Json::UInt(outcome.adaptive.planner_plans))
            .set(
                "drift_alarms",
                Json::UInt(outcome.adaptive.drift_alarms.0 + outcome.adaptive.drift_alarms.1),
            );
        recorder.dump(
            &format!("scenario:{}", outcome.name),
            &[],
            &[],
            &events,
            &metrics,
        );
    }

    /// Runs every spec in order.
    ///
    /// # Errors
    ///
    /// Propagates the first scenario failure.
    pub fn run_all(&self, specs: &[ScenarioSpec]) -> Result<Vec<ScenarioOutcome>, ServiceError> {
        specs.iter().map(|s| self.run_scenario(s)).collect()
    }

    /// Parses each distinct phase's transport fault spec once, in the
    /// scenario context (network verbs are rejected there: they cannot fire
    /// against an in-process observation stream).
    fn phase_fault_plans(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<BTreeMap<&'static str, FaultPlan>, ServiceError> {
        let mut plans = BTreeMap::new();
        for &(phase, _) in &spec.spans {
            if let Some(fault_spec) = phase.fault_spec() {
                if !plans.contains_key(phase.label()) {
                    let seeded = format!("{fault_spec};seed={}", self.config.seed);
                    let plan = FaultPlan::parse_in(&seeded, FaultContext::Scenario)
                        .map_err(ServiceError::InvalidConfig)?;
                    plans.insert(phase.label(), plan);
                }
            }
        }
        Ok(plans)
    }

    /// Deterministic fleet: app `i` belongs to user `i`; candidate sets are
    /// drawn without replacement from a seed-pinned RNG, so the adaptive and
    /// static runs start from identical bindings.
    fn build_fleet(&self) -> Vec<ExecutionMiddleware> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xF1EE7);
        (0..self.config.apps)
            .filter_map(|user| {
                let needed = self.config.tasks_per_app * self.config.candidates_per_task;
                let services = sample_indices(&mut rng, self.config.services, needed);
                let tasks: Vec<AbstractTask> = services
                    .chunks(self.config.candidates_per_task)
                    .enumerate()
                    .filter_map(|(k, chunk)| {
                        AbstractTask::new(format!("task-{k}"), chunk.to_vec()).ok()
                    })
                    .collect();
                Workflow::new(tasks)
                    .ok()
                    .map(|wf| ExecutionMiddleware::new(user, wf, self.config.slo))
            })
            .collect()
    }

    fn run_mode(
        &self,
        spec: &ScenarioSpec,
        world: &RegimeWorld,
        fault_plans: &BTreeMap<&'static str, FaultPlan>,
        mode: Mode,
    ) -> RunMetrics {
        let c = &self.config;
        let service = QosPredictionService::new(ServiceConfig {
            amf: amf_core::AmfConfig::response_time().with_seed(c.seed),
            replay: amf_core::trainer::ReplayOptions {
                max_iterations: 20_000,
                min_iterations: 800,
                window: 400,
                tolerance: 2e-3,
                patience: 2,
            },
            ..Default::default()
        });
        // Register the whole population up front so dense ids equal world
        // indices in both modes.
        for u in 0..c.users {
            service.join_user(&format!("u{u}"));
        }
        for s in 0..c.services {
            service.join_service(&format!("s{s}"));
        }
        let mut fleet = self.build_fleet();
        let mut planner = match Planner::new(c.planner) {
            Ok(p) => p,
            Err(_) => unreachable!("config validated in ScenarioEngine::new"),
        };

        let total_ticks = world.timeline().total_ticks();
        let warmup_end = spec.spans.first().map_or(0, |&(_, t)| t);
        let tasks_per_tick = (fleet.len() * c.tasks_per_app) as u64;
        let threshold_policy = ThresholdPolicy {
            threshold: c.slo,
            min_improvement: c.min_improvement,
        };

        let mut executions = 0u64;
        let mut violations = 0u64;
        let mut rebinds = 0u64;
        let mut flaps = 0u64;
        let mut plans_issued = 0u64;
        let mut rt_sum = 0.0;
        let mut tick_rates: Vec<f64> = Vec::with_capacity(total_ticks as usize);
        let mut prev_rate = 0.0;
        let mut prev_alarm_total = 0u64;
        // Per (app, task): the most recent rebind as (tick, previous binding).
        let mut last_rebind: Vec<Vec<Option<(u32, usize)>>> =
            vec![vec![None; c.tasks_per_app]; fleet.len()];

        for tick in 0..total_ticks {
            let (phase, _) = world.phase_at(tick);
            service.advance_clock(u64::from(tick));

            // Monitor: background traffic — a seeded slice of the matrix,
            // possibly mangled by the phase's transport fault plan.
            let mut batch: Vec<QosRecord> = Vec::new();
            for u in 0..c.users {
                for s in 0..c.services {
                    if hash01(c.seed ^ 0xBAC6, u as u64, s as u64, u64::from(tick))
                        < c.background_density
                    {
                        batch.push(QosRecord {
                            user: format!("u{u}"),
                            service: format!("s{s}"),
                            timestamp: u64::from(tick),
                            value: world.observe(u, s, tick).reported,
                        });
                    }
                }
            }
            if let Some(plan) = fault_plans.get(phase.label()) {
                batch = plan.mutate_stream(&batch);
            }
            service.submit_batch(batch);
            service.idle();

            // The initial phase is warm-up: cold-start error transients can
            // trip the drift sentinel, so at the boundary the sentinel is
            // reset — scenario alarms then attribute to the disruption, never
            // to model warm-up (and never to a previous run).
            if tick == warmup_end {
                service.reset_drift_sentinel();
                prev_alarm_total = 0;
            }

            // Analyze + Plan (adaptive mode only).
            let acting = match mode {
                Mode::Static => false,
                Mode::Adaptive => {
                    let (ua, sa) = service.drift_alarms();
                    let alarm_total = ua + sa;
                    let decision = planner.observe(&PlannerObservation {
                        accuracy: service.windowed_accuracy(),
                        drift_alarm: alarm_total > prev_alarm_total,
                        violation_rate: prev_rate,
                    });
                    prev_alarm_total = alarm_total;
                    if decision.act {
                        plans_issued += 1;
                    }
                    decision.act
                }
            };

            // Execute: every app runs its workflow; when the planner acted,
            // candidates are re-ranked and the threshold policy may rebind.
            let mut tick_violations = 0u64;
            for (app_idx, app) in fleet.iter_mut().enumerate() {
                let user = app.user();
                let before = app.workflow().bound_services();
                let outcome = if acting {
                    let ranked = service.rank_candidates_ids(user, c.services);
                    let mut values: Vec<Option<f64>> = vec![None; c.services];
                    for (s, v) in ranked {
                        if s < values.len() {
                            values[s] = Some(v);
                        }
                    }
                    app.step(
                        |svc| world.actual(user, svc, tick),
                        |_, s| values.get(s).copied().flatten(),
                        &threshold_policy as &dyn AdaptationPolicy,
                    )
                } else {
                    app.step(
                        |svc| world.actual(user, svc, tick),
                        |_, _| None,
                        &StaticPolicy as &dyn AdaptationPolicy,
                    )
                };
                let after = app.workflow().bound_services();
                for (task_idx, (&b, &a)) in before.iter().zip(after.iter()).enumerate() {
                    if b != a {
                        rebinds += 1;
                        if let Some((t0, from)) = last_rebind[app_idx][task_idx] {
                            if a == from && tick - t0 <= c.flap_window {
                                flaps += 1;
                            }
                        }
                        last_rebind[app_idx][task_idx] = Some((tick, b));
                    }
                }
                // The app's own observations feed the predictor too — as
                // *reported* values (outlier bursts corrupt these as well).
                let mut own: Vec<QosRecord> = Vec::with_capacity(outcome.observations.len());
                for &(svc, _) in &outcome.observations {
                    own.push(QosRecord {
                        user: format!("u{user}"),
                        service: format!("s{svc}"),
                        timestamp: u64::from(tick),
                        value: world.observe(user, svc, tick).reported,
                    });
                }
                service.submit_batch(own);
                executions += app.workflow().len() as u64;
                violations += outcome.violations as u64;
                tick_violations += outcome.violations as u64;
                rt_sum += outcome.end_to_end_rt;
            }
            let rate = if tasks_per_tick == 0 {
                0.0
            } else {
                tick_violations as f64 / tasks_per_tick as f64
            };
            tick_rates.push(rate);
            prev_rate = rate;
        }

        let (ua, sa) = service.drift_alarms();
        RunMetrics {
            mode: match mode {
                Mode::Adaptive => "adaptive",
                Mode::Static => "static",
            },
            executions,
            violations,
            slo_violation_rate: if executions == 0 {
                0.0
            } else {
                violations as f64 / executions as f64
            },
            mean_end_to_end_rt: if fleet.is_empty() {
                0.0
            } else {
                rt_sum / (f64::from(total_ticks) * fleet.len() as f64)
            },
            rebinds,
            flaps,
            time_to_recover: time_to_recover(spec, &tick_rates, c.recover_threshold),
            planner_plans: plans_issued,
            drift_alarms: (ua, sa),
        }
    }
}

/// Ticks from the first disruptive phase's start until the fleet's per-tick
/// violation rate stayed at or below `threshold` for three consecutive
/// ticks. `None` for scenarios without disruption or fleets that never
/// recover inside the timeline.
fn time_to_recover(spec: &ScenarioSpec, tick_rates: &[f64], threshold: f64) -> Option<u32> {
    let mut start = 0u32;
    let mut disruption = None;
    for &(phase, ticks) in &spec.spans {
        if phase.is_disruptive() {
            disruption = Some(start);
            break;
        }
        start += ticks;
    }
    let disruption = disruption?;
    let rates = &tick_rates[disruption as usize..];
    rates
        .windows(3)
        .position(|w| w.iter().all(|&r| r <= threshold))
        .map(|offset| offset as u32)
}

/// Renders outcomes as the committed `amf-scenario/v1` report. Key order is
/// lexicographic (BTreeMap-backed), floats avoid wall-clock inputs, and all
/// counters are exact — the same seed yields a byte-identical document.
pub fn report_json(config: &ScenarioConfig, quick: bool, outcomes: &[ScenarioOutcome]) -> Json {
    let run = |m: &RunMetrics| {
        let mut j = Json::obj();
        j.set("executions", Json::UInt(m.executions))
            .set("violations", Json::UInt(m.violations))
            .set("slo_violation_rate", Json::Num(m.slo_violation_rate))
            .set("mean_end_to_end_rt", Json::Num(m.mean_end_to_end_rt))
            .set("rebinds", Json::UInt(m.rebinds))
            .set("flaps", Json::UInt(m.flaps))
            .set(
                "time_to_recover",
                m.time_to_recover
                    .map_or(Json::Null, |t| Json::UInt(u64::from(t))),
            )
            .set("planner_plans", Json::UInt(m.planner_plans))
            .set("drift_alarms", {
                let mut d = Json::obj();
                d.set("user", Json::UInt(m.drift_alarms.0))
                    .set("service", Json::UInt(m.drift_alarms.1));
                d
            });
        j
    };

    let mut scenarios = Vec::with_capacity(outcomes.len());
    let mut wins = 0u64;
    let mut ties = 0u64;
    let mut regressions = 0u64;
    let mut total_flaps = 0u64;
    for o in outcomes {
        let gain = o.adaptation_gain();
        if gain > 0.0 {
            wins += 1;
        } else if gain == 0.0 {
            ties += 1;
        } else {
            regressions += 1;
        }
        total_flaps += o.adaptive.flaps;
        let phases: Vec<Json> = o
            .spans
            .iter()
            .map(|&(phase, ticks)| {
                let mut p = Json::obj();
                p.set("phase", Json::Str(phase.label().to_string()))
                    .set("ticks", Json::UInt(u64::from(ticks)));
                p
            })
            .collect();
        let mut s = Json::obj();
        s.set("name", Json::Str(o.name.clone()))
            .set("phases", Json::Arr(phases))
            .set("ticks", Json::UInt(u64::from(o.ticks)))
            .set("adaptive", run(&o.adaptive))
            .set("static", run(&o.baseline))
            .set("adaptation_gain", Json::Num(gain))
            .set(
                "adaptive_no_worse",
                Json::Bool(o.adaptive.slo_violation_rate <= o.baseline.slo_violation_rate),
            );
        scenarios.push(s);
    }

    let mut summary = Json::obj();
    summary
        .set("scenarios", Json::UInt(outcomes.len() as u64))
        .set("adaptive_wins", Json::UInt(wins))
        .set("ties", Json::UInt(ties))
        .set("regressions", Json::UInt(regressions))
        .set("total_adaptive_flaps", Json::UInt(total_flaps));

    let mut cfg = Json::obj();
    cfg.set("users", Json::UInt(config.users as u64))
        .set("services", Json::UInt(config.services as u64))
        .set("regions", Json::UInt(config.regions as u64))
        .set("apps", Json::UInt(config.apps as u64))
        .set("tasks_per_app", Json::UInt(config.tasks_per_app as u64))
        .set(
            "candidates_per_task",
            Json::UInt(config.candidates_per_task as u64),
        )
        .set("slo_seconds", Json::Num(config.slo))
        .set("background_density", Json::Num(config.background_density))
        .set("min_improvement", Json::Num(config.min_improvement))
        .set("flap_window", Json::UInt(u64::from(config.flap_window)))
        .set("recover_threshold", Json::Num(config.recover_threshold));

    let mut root = Json::obj();
    root.set("schema", Json::Str(SCENARIO_SCHEMA.to_string()))
        .set("seed", Json::UInt(config.seed))
        .set("quick", Json::Bool(quick))
        .set("config", cfg)
        .set("scenarios", Json::Arr(scenarios))
        .set("summary", summary);
    root
}

/// SplitMix64-style stateless draw in [0, 1) (mirrors the regime world's
/// hashing so background sampling is order-independent).
fn hash01(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ScenarioConfig {
        ScenarioConfig::default()
    }

    #[test]
    fn catalog_names_are_unique_and_parse() {
        let specs = catalog(true);
        assert!(specs.len() >= 8);
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert!(RegimeTimeline::new(a.spans.clone()).is_ok());
        }
        assert!(find_scenario("congested", true).is_ok());
        assert!(find_scenario("nope", true).is_err());
        // Quick spans are strictly shorter.
        let full = catalog(false);
        for (q, f) in specs.iter().zip(&full) {
            assert_eq!(q.name, f.name);
            let sum = |s: &ScenarioSpec| s.spans.iter().map(|&(_, t)| t).sum::<u32>();
            assert!(sum(q) < sum(f));
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        for cfg in [
            ScenarioConfig {
                apps: 0,
                ..quick_config()
            },
            ScenarioConfig {
                apps: 100,
                ..quick_config()
            },
            ScenarioConfig {
                tasks_per_app: 20,
                candidates_per_task: 20,
                ..quick_config()
            },
            ScenarioConfig {
                slo: 0.0,
                ..quick_config()
            },
            ScenarioConfig {
                background_density: 0.0,
                ..quick_config()
            },
            ScenarioConfig {
                min_improvement: 1.0,
                ..quick_config()
            },
        ] {
            assert!(ScenarioEngine::new(cfg).is_err());
        }
    }

    #[test]
    fn stationary_control_never_flaps_and_ties() {
        let engine = ScenarioEngine::new(quick_config()).unwrap();
        let spec = find_scenario("good", true).unwrap();
        let out = engine.run_scenario(&spec).unwrap();
        assert_eq!(out.adaptive.planner_plans, 0, "planner must stay quiet");
        assert_eq!(out.adaptive.rebinds, 0);
        assert_eq!(out.adaptive.flaps, 0);
        assert_eq!(out.baseline.rebinds, 0);
        // No disruption -> no time-to-recover to speak of.
        assert_eq!(out.adaptive.time_to_recover, None);
    }

    #[test]
    fn congested_scenario_adaptive_beats_static() {
        let engine = ScenarioEngine::new(quick_config()).unwrap();
        let spec = find_scenario("congested", true).unwrap();
        let out = engine.run_scenario(&spec).unwrap();
        assert!(
            out.baseline.slo_violation_rate > 0.0,
            "congestion must hurt the static fleet"
        );
        assert!(
            out.adaptation_gain() > 0.0,
            "adaptive {} vs static {}",
            out.adaptive.slo_violation_rate,
            out.baseline.slo_violation_rate
        );
        assert!(out.adaptive.rebinds > 0);
    }

    #[test]
    fn report_schema_and_shape() {
        let engine = ScenarioEngine::new(quick_config()).unwrap();
        let spec = find_scenario("good", true).unwrap();
        let outcomes = vec![engine.run_scenario(&spec).unwrap()];
        let report = report_json(engine.config(), true, &outcomes);
        let text = report.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        match &parsed {
            Json::Obj(map) => {
                assert_eq!(
                    map.get("schema"),
                    Some(&Json::Str(SCENARIO_SCHEMA.to_string()))
                );
                assert!(map.contains_key("scenarios"));
                assert!(map.contains_key("summary"));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn flight_dir_gets_a_per_scenario_dump() {
        let dir = std::env::temp_dir().join(format!(
            "amf_scenario_flight_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = ScenarioEngine::new(quick_config())
            .unwrap()
            .with_flight_dir(dir.clone());
        let spec = find_scenario("good", true).unwrap();
        engine.run_scenario(&spec).unwrap();
        let dump = std::fs::read_to_string(dir.join("good.flight.jsonl")).unwrap();
        let header = Json::parse(dump.lines().next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("amf-flight/v1")
        );
        assert_eq!(
            header.get("reason").and_then(Json::as_str),
            Some("scenario:good")
        );
        // The header line carries the run outcome metrics.
        assert_eq!(header.get("kind").and_then(Json::as_str), Some("header"));
        assert_eq!(
            header
                .get("metrics")
                .and_then(|m| m.get("scenario"))
                .and_then(Json::as_str),
            Some("good")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_are_reproducible() {
        let engine = ScenarioEngine::new(quick_config()).unwrap();
        let spec = find_scenario("multi-phase", true).unwrap();
        let a = engine.run_scenario(&spec).unwrap();
        let b = engine.run_scenario(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn time_to_recover_window() {
        let spec = ScenarioSpec {
            name: "x",
            summary: "",
            spans: vec![(RegimePhase::Good, 2), (RegimePhase::Congested, 4)],
        };
        // Disruption starts at tick 2; rates recover from tick 3 onwards.
        let rates = [0.0, 0.0, 0.5, 0.0, 0.0, 0.0];
        assert_eq!(time_to_recover(&spec, &rates, 0.05), Some(1));
        let never = [0.0, 0.0, 0.5, 0.5, 0.5, 0.5];
        assert_eq!(time_to_recover(&spec, &never, 0.05), None);
        let calm = ScenarioSpec {
            name: "calm",
            summary: "",
            spans: vec![(RegimePhase::Good, 6)],
        };
        assert_eq!(time_to_recover(&calm, &rates, 0.05), None);
    }
}
