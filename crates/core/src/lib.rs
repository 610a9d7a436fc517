//! Adaptive Matrix Factorization (AMF) — the primary contribution of
//! *"Towards Online, Accurate, and Scalable QoS Prediction for Runtime
//! Service Adaptation"* (ICDCS 2014).
//!
//! AMF estimates the QoS a user would observe on a *candidate* service it has
//! never invoked, by factorizing the sparse user–service QoS matrix — but
//! unlike offline matrix factorization it is:
//!
//! * **online** — every observed sample `(t, u, s, R)` updates only the two
//!   feature vectors it touches (stochastic gradient descent, Eq. 8–9), so
//!   the model ingests a live QoS stream without retraining;
//! * **accurate** — QoS values are de-skewed by a Box–Cox transform and
//!   normalized (Eq. 3–4), and the loss is *relative* error (Eq. 6), which is
//!   what matters when response times span three orders of magnitude;
//! * **scalable** — per-user and per-service **adaptive weights** derived from
//!   exponential-moving-average error trackers (Eq. 12–15) let new users and
//!   services converge quickly without disturbing already-converged ones
//!   (Eq. 16–17), so the model is robust under churn.
//!
//! The crate is organized around [`AmfModel`] (feature vectors + error
//! trackers + transform), [`AmfTrainer`] (Algorithm 1: the continuous loop
//! that mixes newly observed samples with replayed live samples and discards
//! expired ones via [`ObservationStore`]), and [`AmfConfig`] (all
//! hyperparameters, with the paper's defaults).
//!
//! # Examples
//!
//! ```
//! use amf_core::{AmfConfig, AmfModel};
//!
//! // Response-time model with the paper's hyperparameters.
//! let mut model = AmfModel::new(AmfConfig::response_time())?;
//!
//! // Observe a few QoS samples (user, service, seconds).
//! for (u, s, rt) in [(0, 0, 1.4), (0, 2, 1.1), (1, 1, 0.3), (1, 0, 1.3)] {
//!     model.observe(u, s, rt);
//! }
//!
//! // Predict an unobserved pair.
//! let estimate = model.predict(1, 2).expect("both ids are known");
//! assert!((0.0..=20.0).contains(&estimate));
//! # Ok::<(), amf_core::AmfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diagnostics;
pub mod expiry;
pub mod fault;
pub mod guard;
pub mod model;
pub(crate) mod obs;
pub mod online;
pub mod persistence;
pub mod stream;
pub mod trainer;
pub mod weights;

pub use config::{AmfConfig, LossKind};
pub use diagnostics::{ModelDiagnostics, QuarantineDiagnostics};
pub use expiry::ObservationStore;
pub use fault::{FaultContext, FaultPlan, NetFault};
pub use guard::{GuardConfig, GuardStats, QuarantinedSample, RejectReason, SampleGuard};
pub use model::AmfModel;
pub use stream::{
    AccuracyWindow, DriftConfig, DriftSentinel, DriftVerdict, PageHinkley, WindowedAccuracy,
    ACCURACY_WINDOW,
};
pub use trainer::{AmfTrainer, TrainReport};
pub use weights::ErrorTracker;

// `servebench/layers` names these three items, and the benchmark's files
// change only in benchmark changes: they exist only for that call site,
// change no behaviour, and go with it in the next change to the benchmark.
#[doc(hidden)]
pub use servebench_compat::*;
#[doc(hidden)]
pub mod servebench_compat {
    use crate::AmfTrainer;
    use std::convert::Infallible;
    /// Batches always apply on the calling thread, in stream order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum Consistency {
        /// Bitwise the sequential model.
        #[default]
        Parity,
    }

    /// Holds nothing: no option changes how a batch is applied.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct EngineOptions;

    impl EngineOptions {
        /// Ignores both arguments.
        pub fn with_consistency(_shards: usize, _consistency: Consistency) -> Self {
            Self
        }
    }

    impl AmfTrainer {
        /// Forwards to [`AmfTrainer::feed_batch`]; no plan can be passed.
        pub fn feed_batch_sharded_with<I: IntoIterator<Item = (usize, usize, u64, f64)>>(
            &mut self,
            samples: I,
            _options: EngineOptions,
            _plan: Option<Infallible>,
        ) -> Result<(usize, ()), Infallible> {
            Ok((self.feed_batch(samples), ()))
        }
    }
}

/// Error type for AMF configuration and persistence.
#[derive(Debug)]
pub enum AmfError {
    /// A hyperparameter was outside its valid domain.
    InvalidConfig(String),
    /// The data transform could not be constructed.
    Transform(qos_transform::TransformError),
    /// Persistence I/O failed.
    Io(std::io::Error),
    /// A persisted model file was malformed.
    Corrupt {
        /// 1-based line of the failure.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for AmfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmfError::InvalidConfig(msg) => write!(f, "invalid AMF config: {msg}"),
            AmfError::Transform(e) => write!(f, "transform error: {e}"),
            AmfError::Io(e) => write!(f, "io error: {e}"),
            AmfError::Corrupt { line, message } => {
                write!(f, "corrupt model file at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for AmfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AmfError::Transform(e) => Some(e),
            AmfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qos_transform::TransformError> for AmfError {
    fn from(e: qos_transform::TransformError) -> Self {
        AmfError::Transform(e)
    }
}

impl From<std::io::Error> for AmfError {
    fn from(e: std::io::Error) -> Self {
        AmfError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(AmfError::InvalidConfig("x".into())
            .to_string()
            .contains("invalid"));
        let e = AmfError::Corrupt {
            line: 2,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 2"));
        let e: AmfError = qos_transform::TransformError::EmptyInput.into();
        assert!(e.to_string().contains("transform"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AmfError>();
    }
}
