//! CLI subcommands. Every command is a pure function from parsed [`Args`] to
//! its output text, so the test suite drives commands directly without
//! spawning processes.

pub mod diagnose;
pub mod evaluate;
pub mod experiment;
pub mod generate;
pub mod loadtest;
pub mod predict;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod simulate;
pub mod stats;
pub mod trace;
pub mod train;

use crate::args::{Args, ArgsError};
use qos_dataset::Attribute;
use qos_service::{QosPredictionService, QosRecord};

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

impl From<qos_dataset::DatasetError> for CliError {
    fn from(e: qos_dataset::DatasetError) -> Self {
        CliError(e.to_string())
    }
}

impl From<amf_core::AmfError> for CliError {
    fn from(e: amf_core::AmfError) -> Self {
        CliError(e.to_string())
    }
}

/// Submits `records` to `service` in batches of 256, the batch size the
/// CLI warms a service with.
pub fn submit_batched(
    service: &QosPredictionService,
    records: impl IntoIterator<Item = QosRecord>,
) {
    let mut batch = Vec::with_capacity(256);
    for record in records {
        batch.push(record);
        if batch.len() == 256 {
            service.submit_batch(std::mem::take(&mut batch));
        }
    }
    service.submit_batch(batch);
}

/// The seeded warm-up stream of `serve` and `stats --obs`: `samples`
/// records from an LCG over a 24×32 entity grid (`user-N`, `svc-N`), about
/// 5% of them deliberately invalid (NaN, negative, out of range) so the
/// guard counters are exercised, not just the happy path.
pub fn seeded_stream(samples: u64, seed: u64) -> impl Iterator<Item = QosRecord> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    (0..samples).map(move |t| {
        let user = next() % 24;
        let svc = next() % 32;
        let roll = next() % 100;
        let value = if roll < 2 {
            f64::NAN
        } else if roll < 4 {
            -1.0
        } else if roll < 5 {
            1.0e9
        } else {
            0.05 + (next() % 19_000) as f64 / 1_000.0
        };
        QosRecord {
            user: format!("user-{user}"),
            service: format!("svc-{svc}"),
            timestamp: t,
            value,
        }
    })
}

/// Parses `--attr rt|tp` (default rt).
pub fn parse_attribute(args: &Args) -> Result<Attribute, CliError> {
    match args.get_or("attr", "rt").to_ascii_lowercase().as_str() {
        "rt" | "response-time" => Ok(Attribute::ResponseTime),
        "tp" | "throughput" => Ok(Attribute::Throughput),
        other => Err(CliError(format!(
            "unknown attribute '{other}' (expected rt or tp)"
        ))),
    }
}

/// Parses `--scale small|medium|full` (default small).
pub fn parse_scale(args: &Args) -> Result<qos_eval::Scale, CliError> {
    match args.get_or("scale", "small").to_ascii_lowercase().as_str() {
        "small" => Ok(qos_eval::Scale::small()),
        "medium" => Ok(qos_eval::Scale::medium()),
        "full" => Ok(qos_eval::Scale::full()),
        other => Err(CliError(format!(
            "unknown scale '{other}' (expected small, medium, or full)"
        ))),
    }
}

/// The AMF configuration from CLI flags, starting from the attribute's paper
/// defaults and overriding any of `--alpha --lambda --beta --eta --dim
/// --seed`.
pub fn amf_config_from(args: &Args, attr: Attribute) -> Result<amf_core::AmfConfig, CliError> {
    let base = match attr {
        Attribute::ResponseTime => amf_core::AmfConfig::response_time(),
        Attribute::Throughput => amf_core::AmfConfig::throughput(),
    };
    let lambda = args.parse_or("lambda", base.lambda_user)?;
    Ok(amf_core::AmfConfig {
        alpha: args.parse_or("alpha", base.alpha)?,
        lambda_user: lambda,
        lambda_service: lambda,
        beta: args.parse_or("beta", base.beta)?,
        learning_rate: args.parse_or("eta", base.learning_rate)?,
        dimension: args.parse_or("dim", base.dimension)?,
        seed: args.parse_or("seed", base.seed)?,
        ..base
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn attribute_parsing() {
        assert_eq!(
            parse_attribute(&args(&[])).unwrap(),
            Attribute::ResponseTime
        );
        assert_eq!(
            parse_attribute(&args(&["--attr", "tp"])).unwrap(),
            Attribute::Throughput
        );
        assert_eq!(
            parse_attribute(&args(&["--attr", "Throughput"])).unwrap(),
            Attribute::Throughput
        );
        assert!(parse_attribute(&args(&["--attr", "latency"])).is_err());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(&args(&[])).unwrap(), qos_eval::Scale::small());
        assert_eq!(
            parse_scale(&args(&["--scale", "full"])).unwrap(),
            qos_eval::Scale::full()
        );
        assert!(parse_scale(&args(&["--scale", "huge"])).is_err());
    }

    #[test]
    fn amf_config_overrides() {
        let a = args(&[
            "--alpha", "-0.05", "--lambda", "0.01", "--dim", "5", "--seed", "9",
        ]);
        let c = amf_config_from(&a, Attribute::ResponseTime).unwrap();
        assert_eq!(c.alpha, -0.05);
        assert_eq!(c.lambda_user, 0.01);
        assert_eq!(c.lambda_service, 0.01);
        assert_eq!(c.dimension, 5);
        assert_eq!(c.seed, 9);
        // untouched defaults
        assert_eq!(c.beta, 0.3);
    }

    #[test]
    fn amf_config_defaults_by_attribute() {
        let c = amf_config_from(&args(&[]), Attribute::Throughput).unwrap();
        assert_eq!(c.alpha, -0.05);
        assert_eq!(c.r_max, 7000.0);
    }
}
