//! QoS-driven service adaptation framework (paper Section III).
//!
//! The paper wraps AMF in a two-module framework, reproduced here as a
//! simulation-friendly library:
//!
//! * **QoS prediction service** ([`QosPredictionService`]) — collects observed
//!   QoS data from all users ("input handling"), keeps the AMF model updated
//!   online ("online updating"), and serves predictions on demand ("QoS
//!   prediction") through one interface. [`managers`] provides the user and
//!   service managers that map external identities to model indices and track
//!   join/leave churn. The QoS database is the embedded trainer's
//!   [`amf_core::ObservationStore`]: each pair's newest value, until it
//!   expires.
//!
//! * **Execution middleware** ([`middleware`], [`workflow`], [`policy`]) — a
//!   BPEL-engine stand-in: an application is a [`workflow::Workflow`] of
//!   abstract tasks, each bound to one of several functionally-equivalent
//!   candidate services. Per time step the middleware invokes the bound
//!   services, reports the observed QoS, and lets an
//!   [`policy::AdaptationPolicy`] decide re-bindings ("adaptation actions")
//!   based on predicted QoS of the candidates.
//!
//! [`scenario`] is the one closed-loop harness: it drives a fleet of
//! applications through the whole loop against a phase-regime world or a
//! synthetic [`qos_dataset::QosDataset`]'s time slices, one policy per run,
//! to measure end-to-end adaptation quality — the system-level payoff the
//! paper motivates in its introduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod adapt;
pub mod managers;
pub mod middleware;
pub mod policy;
pub mod prediction_service;
pub mod scenario;
pub mod telemetry;
pub mod workflow;

pub use adapt::{Planner, PlannerConfig, PlannerDecision, PlannerObservation, PlannerTier};
pub use managers::{EntityId, Registry};
pub use middleware::ExecutionMiddleware;
pub use policy::{AdaptationPolicy, BestPredictedPolicy, ThresholdPolicy};
pub use prediction_service::{
    Prediction, PredictionSource, QosPredictionService, QosRecord, ServiceConfig, ServiceStats,
    SourceCounts,
};
pub use scenario::{
    catalog, find_scenario, report_json, RunMetrics, ScenarioConfig, ScenarioEngine,
    ScenarioOutcome, ScenarioSpec, SCENARIO_SCHEMA,
};
pub use telemetry::HEALTH_SCHEMA;
pub use workflow::{AbstractTask, Workflow};

/// Error type for the service framework.
#[derive(Debug)]
pub enum ServiceError {
    /// An external id was not registered.
    UnknownEntity {
        /// "user" or "service".
        kind: &'static str,
        /// The offending external id.
        id: String,
    },
    /// The underlying AMF model failed.
    Model(amf_core::AmfError),
    /// A workflow definition was invalid.
    InvalidWorkflow(String),
    /// A scenario or planner configuration was invalid.
    InvalidConfig(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownEntity { kind, id } => write!(f, "unknown {kind}: {id}"),
            ServiceError::Model(e) => write!(f, "model error: {e}"),
            ServiceError::InvalidWorkflow(msg) => write!(f, "invalid workflow: {msg}"),
            ServiceError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amf_core::AmfError> for ServiceError {
    fn from(e: amf_core::AmfError) -> Self {
        ServiceError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ServiceError::UnknownEntity {
            kind: "user",
            id: "u-1".into(),
        };
        assert_eq!(e.to_string(), "unknown user: u-1");
        assert!(ServiceError::InvalidWorkflow("empty".into())
            .to_string()
            .contains("workflow"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServiceError>();
    }
}
