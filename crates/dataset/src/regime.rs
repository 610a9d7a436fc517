//! Phase-based QoS regime profiles and composable scenario timelines.
//!
//! The paper's adaptation story (Section III) presumes the QoS landscape
//! *shifts*: services congest, links get lossy, regions fail, load recovers.
//! This module scripts those shifts deterministically so a closed-loop
//! harness can measure what adaptation buys. A [`RegimeTimeline`] is a
//! sequence of phases — the classic good / congested / lossy / recovery
//! cycle plus churn storms, flash crowds, regional outages, and
//! correlated-outlier bursts — and a [`RegimeWorld`] turns a timeline into
//! per-`(user, service, tick)` ground-truth response times plus the (possibly
//! corrupted) values a QoS manager would *report*.
//!
//! Everything is a pure function of `(seed, user, service, tick)`: the same
//! seed reproduces the same world byte for byte, which is what lets scenario
//! reports pin their metrics in CI.

use crate::DatasetError;

/// One QoS regime: how the world behaves for a span of ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegimePhase {
    /// Baseline: everything fast, mild diurnal wobble.
    Good,
    /// Sustained congestion: stress-prone services slow several-fold.
    Congested,
    /// Lossy transport: retransmit tails spike a subset of observations.
    Lossy,
    /// Congestion decaying back to baseline (exponential relief).
    Recovery,
    /// A global load surge: everyone slows, stress-prone services most.
    FlashCrowd,
    /// Service churn: a seeded subset of services goes dark mid-phase.
    ChurnStorm,
    /// One region's services time out entirely.
    RegionalOutage,
    /// Measurements (not the services) go bad: a correlated subset of
    /// reported values turns to garbage while actual QoS stays normal.
    OutlierBurst,
}

impl RegimePhase {
    /// Every phase, in catalog order.
    pub const ALL: [RegimePhase; 8] = [
        RegimePhase::Good,
        RegimePhase::Congested,
        RegimePhase::Lossy,
        RegimePhase::Recovery,
        RegimePhase::FlashCrowd,
        RegimePhase::ChurnStorm,
        RegimePhase::RegionalOutage,
        RegimePhase::OutlierBurst,
    ];

    /// Short kebab-case label (stable: used in scenario specs and reports).
    pub fn label(self) -> &'static str {
        match self {
            RegimePhase::Good => "good",
            RegimePhase::Congested => "congested",
            RegimePhase::Lossy => "lossy",
            RegimePhase::Recovery => "recovery",
            RegimePhase::FlashCrowd => "flash-crowd",
            RegimePhase::ChurnStorm => "churn-storm",
            RegimePhase::RegionalOutage => "regional-outage",
            RegimePhase::OutlierBurst => "outlier-burst",
        }
    }

    /// Parses a phase label (the inverse of [`RegimePhase::label`]).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for unknown labels.
    pub fn parse(label: &str) -> Result<Self, DatasetError> {
        RegimePhase::ALL
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| DatasetError::InvalidConfig(format!("unknown regime phase '{label}'")))
    }

    /// Whether the phase disturbs the baseline (everything but
    /// [`RegimePhase::Good`]). Scenario harnesses measure time-to-recover
    /// from the start of the last disruptive phase.
    pub fn is_disruptive(self) -> bool {
        self != RegimePhase::Good
    }

    /// An engine-side fault-plan spec capturing the phase's transport
    /// behaviour, for harnesses that feed observations through
    /// `amf_core::FaultPlan::mutate_stream` (parse it with
    /// `FaultPlan::parse_in(.., FaultContext::Scenario)` — the network verbs
    /// are deliberately absent, they cannot fire in-process). `None` for
    /// phases whose transport is clean.
    pub fn fault_spec(self) -> Option<&'static str> {
        match self {
            RegimePhase::Lossy => Some("drop=0.08;dup=0.04;reorder=6"),
            RegimePhase::ChurnStorm => Some("drop=0.03;reorder=12"),
            RegimePhase::FlashCrowd => Some("dup=0.05;reorder=4"),
            _ => None,
        }
    }
}

/// The per-tick shape of one phase, in the spirit of SNIPPETS.md Snippet 2's
/// `phase_profile(phase, t)`: a base multiplier with sinusoidal modulation
/// plus phase-specific stress/loss knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseProfile {
    /// Multiplier on every service's base response time.
    pub rt_factor: f64,
    /// Extra multiplier applied in proportion to a service's stress
    /// susceptibility (`0` = phase stresses nobody).
    pub stress_gain: f64,
    /// Probability that one observation grows a retransmit-style tail spike.
    pub loss: f64,
    /// Probability that one *reported* value is corrupted (measurement
    /// garbage, not real QoS).
    pub outlier_rate: f64,
    /// Fraction of services dark during the phase (churn / outage mass).
    pub down_fraction: f64,
}

/// Evaluates the profile of `phase` at local tick `t` (ticks since the phase
/// began). Deterministic and allocation-free; the sinusoids keep the world
/// moving inside a phase so windowed accuracy is exercised, exactly like the
/// snippet's `80 + 10*sin(t/15)` bandwidth curves.
pub fn phase_profile(phase: RegimePhase, t: u32) -> PhaseProfile {
    let t = f64::from(t);
    let wave = |period: f64| (t / period).sin();
    match phase {
        RegimePhase::Good => PhaseProfile {
            rt_factor: 1.0 + 0.06 * wave(15.0),
            stress_gain: 0.0,
            loss: 0.0005,
            outlier_rate: 0.0,
            down_fraction: 0.0,
        },
        RegimePhase::Congested => PhaseProfile {
            rt_factor: 1.25 + 0.15 * wave(9.0),
            stress_gain: 3.2 + 0.6 * wave(7.0),
            loss: 0.008,
            outlier_rate: 0.0,
            down_fraction: 0.0,
        },
        RegimePhase::Lossy => PhaseProfile {
            rt_factor: 1.05 + 0.08 * wave(11.0),
            stress_gain: 0.4,
            loss: 0.22,
            outlier_rate: 0.0,
            down_fraction: 0.0,
        },
        RegimePhase::Recovery => PhaseProfile {
            // Congestion relief: the stress term decays with a ~12-tick
            // constant, so the phase starts congested and ends good.
            rt_factor: 1.1 + 0.08 * wave(13.0),
            stress_gain: 3.0 * (-t / 12.0).exp(),
            loss: 0.004,
            outlier_rate: 0.0,
            down_fraction: 0.0,
        },
        RegimePhase::FlashCrowd => PhaseProfile {
            // Ramp up over ~8 ticks, then sustained surge.
            rt_factor: 1.0 + 1.1 * (1.0 - (-t / 8.0).exp()),
            stress_gain: 1.8,
            loss: 0.01,
            outlier_rate: 0.0,
            down_fraction: 0.0,
        },
        RegimePhase::ChurnStorm => PhaseProfile {
            rt_factor: 1.05,
            stress_gain: 0.5,
            loss: 0.01,
            outlier_rate: 0.0,
            down_fraction: 0.3,
        },
        RegimePhase::RegionalOutage => PhaseProfile {
            rt_factor: 1.0 + 0.05 * wave(15.0),
            stress_gain: 0.0,
            loss: 0.002,
            outlier_rate: 0.0,
            down_fraction: 0.0, // outage is regional, not sampled per-service
        },
        RegimePhase::OutlierBurst => PhaseProfile {
            rt_factor: 1.0 + 0.05 * wave(15.0),
            stress_gain: 0.0,
            loss: 0.0005,
            outlier_rate: 0.35,
            down_fraction: 0.0,
        },
    }
}

/// One phase and how many ticks it lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The regime in force.
    pub phase: RegimePhase,
    /// Duration in ticks (must be ≥ 1).
    pub ticks: u32,
}

/// A composable multi-phase timeline: phases run back to back, Snippet 2's
/// `[("good", 60), ("congested", 60), …]` idiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegimeTimeline {
    spans: Vec<PhaseSpan>,
}

impl RegimeTimeline {
    /// Builds a timeline from `(phase, ticks)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when empty or any span lasts
    /// zero ticks.
    pub fn new(spans: Vec<(RegimePhase, u32)>) -> Result<Self, DatasetError> {
        if spans.is_empty() {
            return Err(DatasetError::InvalidConfig(
                "regime timeline needs at least one phase".into(),
            ));
        }
        if spans.iter().any(|&(_, ticks)| ticks == 0) {
            return Err(DatasetError::InvalidConfig(
                "regime phase spans must last at least one tick".into(),
            ));
        }
        Ok(Self {
            spans: spans
                .into_iter()
                .map(|(phase, ticks)| PhaseSpan { phase, ticks })
                .collect(),
        })
    }

    /// The spans in order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Total length in ticks.
    pub fn total_ticks(&self) -> u32 {
        self.spans.iter().map(|s| s.ticks).sum()
    }

    /// The phase in force at `tick` plus the tick's offset into that phase.
    /// Ticks past the end stay in the final phase (its local clock keeps
    /// counting), so harness warm-down reads never panic.
    pub fn phase_at(&self, tick: u32) -> (RegimePhase, u32) {
        let mut remaining = tick;
        for (i, span) in self.spans.iter().enumerate() {
            if remaining < span.ticks || i + 1 == self.spans.len() {
                return (span.phase, remaining);
            }
            remaining -= span.ticks;
        }
        unreachable!("timeline is never empty")
    }
}

/// Dimensions and tuning of a [`RegimeWorld`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeWorldConfig {
    /// Number of users.
    pub users: usize,
    /// Number of services.
    pub services: usize,
    /// Number of service regions (regional outages take one of these down).
    pub regions: usize,
    /// Seed for every per-entity/per-tick draw.
    pub seed: u64,
    /// Response time reported for a dark (churned/outaged) service —
    /// effectively the caller's timeout.
    pub timeout_rt: f64,
    /// Which region [`RegimePhase::RegionalOutage`] darkens. `None` picks one
    /// from the seed; harnesses that know which regions their fleet depends
    /// on can aim the outage explicitly.
    pub outage_region: Option<usize>,
}

impl Default for RegimeWorldConfig {
    fn default() -> Self {
        Self {
            users: 24,
            services: 48,
            regions: 4,
            seed: 42,
            timeout_rt: 18.5,
            outage_region: None,
        }
    }
}

/// One observation of a service by a user at a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeObservation {
    /// Ground-truth response time actually experienced (seconds).
    pub actual: f64,
    /// The value the user's QoS manager reports to the prediction service —
    /// equal to `actual` except during outlier bursts, when a correlated
    /// subset of measurements is garbage.
    pub reported: f64,
}

/// A deterministic QoS world driven by a [`RegimeTimeline`].
///
/// Response times are built from seeded per-service bases (how fast the
/// service is when healthy), per-service *stress susceptibility* (how badly
/// congestion hurts it), per-user multipliers (network position), the
/// phase's [`PhaseProfile`], and per-observation tail-spike draws. All of it
/// is hash-derived — no mutable RNG state — so observation order never
/// changes the world.
#[derive(Debug, Clone)]
pub struct RegimeWorld {
    config: RegimeWorldConfig,
    timeline: RegimeTimeline,
    /// Region hit by [`RegimePhase::RegionalOutage`] spans.
    outage_region: usize,
}

impl RegimeWorld {
    /// Builds a world.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for degenerate dimensions.
    pub fn new(config: RegimeWorldConfig, timeline: RegimeTimeline) -> Result<Self, DatasetError> {
        if config.users == 0 || config.services == 0 {
            return Err(DatasetError::InvalidConfig(
                "regime world needs at least one user and one service".into(),
            ));
        }
        if config.regions == 0 || config.regions > config.services {
            return Err(DatasetError::InvalidConfig(format!(
                "regions must be in 1..={}",
                config.services
            )));
        }
        if !(config.timeout_rt.is_finite() && config.timeout_rt > 0.0) {
            return Err(DatasetError::InvalidConfig(
                "timeout_rt must be a positive finite value".into(),
            ));
        }
        if let Some(r) = config.outage_region {
            if r >= config.regions {
                return Err(DatasetError::InvalidConfig(format!(
                    "outage_region {r} out of range (regions={})",
                    config.regions
                )));
            }
        }
        let outage_region = config
            .outage_region
            .unwrap_or_else(|| (mix(config.seed, 0xA11, 0, 0) % config.regions as u64) as usize);
        Ok(Self {
            config,
            timeline,
            outage_region,
        })
    }

    /// The world's configuration.
    pub fn config(&self) -> &RegimeWorldConfig {
        &self.config
    }

    /// The driving timeline.
    pub fn timeline(&self) -> &RegimeTimeline {
        &self.timeline
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.config.users
    }

    /// Number of services.
    pub fn services(&self) -> usize {
        self.config.services
    }

    /// The region darkened by regional-outage phases.
    pub fn outage_region(&self) -> usize {
        self.outage_region
    }

    /// The region a service belongs to (stable hash partition).
    pub fn region_of(&self, service: usize) -> usize {
        (mix(self.config.seed, 0x5E6, service as u64, 0) % self.config.regions as u64) as usize
    }

    /// A service's healthy-baseline response time (seconds, ∈ [0.3, 1.8]).
    pub fn base_rt(&self, service: usize) -> f64 {
        0.3 + 1.5 * hash01(self.config.seed, 0xBA5E, service as u64, 0)
    }

    /// How strongly congestion-style stress amplifies this service (∈ [0, 1]).
    pub fn stress_of(&self, service: usize) -> f64 {
        hash01(self.config.seed, 0x57E5, service as u64, 0)
    }

    /// The phase in force at `tick` and the local offset into it.
    pub fn phase_at(&self, tick: u32) -> (RegimePhase, u32) {
        self.timeline.phase_at(tick)
    }

    /// Whether a service is up at `tick`. Churn storms take down a seeded
    /// `down_fraction` of services for the span; regional outages take down
    /// the outage region.
    pub fn available(&self, service: usize, tick: u32) -> bool {
        let (phase, _) = self.timeline.phase_at(tick);
        match phase {
            RegimePhase::RegionalOutage => self.region_of(service) != self.outage_region,
            _ => {
                let profile = phase_profile(phase, 0);
                profile.down_fraction == 0.0
                    || hash01(self.config.seed, 0xD0_1137, service as u64, 0)
                        >= profile.down_fraction
            }
        }
    }

    /// Ground-truth response time of one invocation. Always finite,
    /// positive, and clamped below 20 s (the RT attribute's range).
    pub fn actual(&self, user: usize, service: usize, tick: u32) -> f64 {
        if !self.available(service, tick) {
            return self.config.timeout_rt;
        }
        let (phase, t) = self.timeline.phase_at(tick);
        let profile = phase_profile(phase, t);
        let user_factor = 0.9 + 0.25 * hash01(self.config.seed, 0x05E2, user as u64, 0);
        let stress = self.stress_of(service);
        let mut rt = self.base_rt(service)
            * user_factor
            * (profile.rt_factor + profile.stress_gain * stress);
        // Retransmit tail: a per-observation draw, more likely for
        // stress-prone services, multiplies RT 4–9×.
        let tail_p = profile.loss * (0.4 + 1.2 * stress);
        let draw = hash01(
            self.config.seed ^ 0x7A11,
            user as u64,
            service as u64,
            u64::from(tick),
        );
        if draw < tail_p {
            let spike = 4.0
                + 5.0
                    * hash01(
                        self.config.seed ^ 0x5B1E,
                        user as u64,
                        service as u64,
                        u64::from(tick),
                    );
            rt *= spike;
        }
        rt.clamp(0.05, 19.5)
    }

    /// One full observation: the actual RT plus what gets *reported*.
    /// During outlier bursts a correlated subset (keyed per `(service,
    /// tick)`, so every user measuring that service that tick reports the
    /// same garbage — the "correlated" in correlated outliers) reports wild
    /// values; actual QoS is unaffected.
    pub fn observe(&self, user: usize, service: usize, tick: u32) -> RegimeObservation {
        let actual = self.actual(user, service, tick);
        let (phase, t) = self.timeline.phase_at(tick);
        let profile = phase_profile(phase, t);
        let mut reported = actual;
        if profile.outlier_rate > 0.0 {
            let burst = hash01(
                self.config.seed ^ 0x0071,
                service as u64,
                u64::from(tick),
                0,
            );
            if burst < profile.outlier_rate {
                // Alternate between absurdly large and negative garbage.
                reported = if burst < profile.outlier_rate * 0.5 {
                    actual * 400.0
                } else {
                    -actual
                };
            }
        }
        RegimeObservation { actual, reported }
    }
}

/// SplitMix64-style stateless mix of a seed and three coordinates.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1) from the mixed coordinates: a pure function of
/// its arguments, so draws do not depend on the order they are taken in.
pub fn hash01(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    (mix(seed, a, b, c) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(spans: Vec<(RegimePhase, u32)>) -> RegimeWorld {
        RegimeWorld::new(
            RegimeWorldConfig::default(),
            RegimeTimeline::new(spans).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn labels_round_trip() {
        for phase in RegimePhase::ALL {
            assert_eq!(RegimePhase::parse(phase.label()).unwrap(), phase);
        }
        assert!(RegimePhase::parse("warp").is_err());
        assert!(!RegimePhase::Good.is_disruptive());
        assert!(RegimePhase::RegionalOutage.is_disruptive());
    }

    #[test]
    fn timeline_phase_lookup_and_bounds() {
        let tl = RegimeTimeline::new(vec![
            (RegimePhase::Good, 10),
            (RegimePhase::Congested, 5),
            (RegimePhase::Recovery, 5),
        ])
        .unwrap();
        assert_eq!(tl.total_ticks(), 20);
        assert_eq!(tl.phase_at(0), (RegimePhase::Good, 0));
        assert_eq!(tl.phase_at(9), (RegimePhase::Good, 9));
        assert_eq!(tl.phase_at(10), (RegimePhase::Congested, 0));
        assert_eq!(tl.phase_at(14), (RegimePhase::Congested, 4));
        assert_eq!(tl.phase_at(15), (RegimePhase::Recovery, 0));
        // Past the end: the final phase's clock keeps counting.
        assert_eq!(tl.phase_at(30), (RegimePhase::Recovery, 15));
        assert!(RegimeTimeline::new(vec![]).is_err());
        assert!(RegimeTimeline::new(vec![(RegimePhase::Good, 0)]).is_err());
    }

    #[test]
    fn world_is_deterministic_and_in_range() {
        let w1 = world(vec![(RegimePhase::Good, 20), (RegimePhase::Congested, 20)]);
        let w2 = world(vec![(RegimePhase::Good, 20), (RegimePhase::Congested, 20)]);
        for tick in 0..40 {
            for u in 0..4 {
                for s in 0..8 {
                    let a = w1.observe(u, s, tick);
                    let b = w2.observe(u, s, tick);
                    assert_eq!(a, b, "same seed must reproduce the world");
                    assert!(a.actual > 0.0 && a.actual < 20.0);
                    assert!(a.reported.is_finite());
                }
            }
        }
    }

    #[test]
    fn congestion_hurts_stressed_services_most() {
        let w = world(vec![(RegimePhase::Good, 10), (RegimePhase::Congested, 10)]);
        // Find the most and least stress-prone services.
        let (mut hi, mut lo) = (0, 0);
        for s in 1..w.services() {
            if w.stress_of(s) > w.stress_of(hi) {
                hi = s;
            }
            if w.stress_of(s) < w.stress_of(lo) {
                lo = s;
            }
        }
        let slowdown = |s: usize| w.actual(0, s, 15) / w.actual(0, s, 0);
        assert!(
            slowdown(hi) > 2.0,
            "stressed service must slow down: {}",
            slowdown(hi)
        );
        assert!(
            slowdown(lo) < 2.0,
            "unstressed service stays close to baseline: {}",
            slowdown(lo)
        );
    }

    #[test]
    fn recovery_decays_back_toward_baseline() {
        let w = world(vec![(RegimePhase::Recovery, 60)]);
        let mut hi = 0;
        for s in 1..w.services() {
            if w.stress_of(s) > w.stress_of(hi) {
                hi = s;
            }
        }
        let early = w.actual(0, hi, 1);
        let late = w.actual(0, hi, 59);
        assert!(
            late < early * 0.6,
            "recovery must relieve congestion: early {early} late {late}"
        );
    }

    #[test]
    fn regional_outage_darkens_exactly_one_region() {
        let w = world(vec![
            (RegimePhase::RegionalOutage, 10),
            (RegimePhase::Good, 10),
        ]);
        let mut dark = 0;
        for s in 0..w.services() {
            if w.available(s, 5) {
                assert_ne!(w.region_of(s), w.outage_region());
                assert!(w.actual(0, s, 5) < 20.0);
            } else {
                dark += 1;
                assert_eq!(w.region_of(s), w.outage_region());
                assert_eq!(w.actual(0, s, 5), w.config().timeout_rt);
            }
        }
        assert!(dark > 0, "some services must be in the outage region");
        assert!(dark < w.services(), "the outage must not be global");
        // Outside the span everything is back.
        assert!((0..w.services()).all(|s| w.available(s, 15)));
    }

    #[test]
    fn churn_storm_takes_down_a_fraction() {
        let w = world(vec![(RegimePhase::Good, 5), (RegimePhase::ChurnStorm, 10)]);
        let down = (0..w.services()).filter(|&s| !w.available(s, 8)).count();
        let frac = down as f64 / w.services() as f64;
        assert!(
            (0.1..=0.5).contains(&frac),
            "churn fraction {frac} out of band"
        );
        assert!((0..w.services()).all(|s| w.available(s, 2)), "pre-storm up");
    }

    #[test]
    fn outlier_burst_corrupts_reports_not_actuals() {
        let w = world(vec![(RegimePhase::OutlierBurst, 20)]);
        let mut corrupted = 0;
        let mut clean = 0;
        for tick in 0..20 {
            for s in 0..w.services() {
                let per_service: Vec<RegimeObservation> =
                    (0..3).map(|u| w.observe(u, s, tick)).collect();
                let bad = per_service
                    .iter()
                    .filter(|o| o.reported != o.actual)
                    .count();
                // Correlated: all users measuring (s, tick) agree on whether
                // it is corrupted.
                assert!(bad == 0 || bad == per_service.len());
                if bad > 0 {
                    corrupted += 1;
                    for o in &per_service {
                        assert!(o.actual < 20.0, "actual QoS is unaffected");
                        assert!(
                            o.reported < 0.0 || o.reported > 20.0,
                            "garbage must be out of range so guards can see it: {}",
                            o.reported
                        );
                    }
                } else {
                    clean += 1;
                }
            }
        }
        assert!(corrupted > 0, "burst must corrupt something");
        assert!(clean > corrupted, "burst must not corrupt everything");
    }

    #[test]
    fn fault_specs_only_for_transport_phases() {
        assert!(RegimePhase::Lossy.fault_spec().is_some());
        assert!(RegimePhase::ChurnStorm.fault_spec().is_some());
        assert!(RegimePhase::Good.fault_spec().is_none());
        assert!(RegimePhase::RegionalOutage.fault_spec().is_none());
        // No spec smuggles in a network verb (they are inert in-process).
        for phase in RegimePhase::ALL {
            if let Some(spec) = phase.fault_spec() {
                for verb in ["conn-reset", "slow-read", "blackhole"] {
                    assert!(!spec.contains(verb), "{spec} contains {verb}");
                }
            }
        }
    }

    #[test]
    fn invalid_worlds_rejected() {
        let tl = || RegimeTimeline::new(vec![(RegimePhase::Good, 1)]).unwrap();
        for config in [
            RegimeWorldConfig {
                users: 0,
                ..Default::default()
            },
            RegimeWorldConfig {
                services: 0,
                ..Default::default()
            },
            RegimeWorldConfig {
                regions: 0,
                ..Default::default()
            },
            RegimeWorldConfig {
                regions: 100,
                services: 10,
                ..Default::default()
            },
            RegimeWorldConfig {
                timeout_rt: f64::NAN,
                ..Default::default()
            },
            RegimeWorldConfig {
                outage_region: Some(4),
                ..Default::default()
            },
        ] {
            assert!(RegimeWorld::new(config, tl()).is_err(), "{config:?}");
        }
    }
}
