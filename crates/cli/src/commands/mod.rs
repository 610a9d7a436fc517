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
pub mod stats;
pub mod trace;
pub mod train;

use crate::args::{Args, ArgsError};
use qos_dataset::{Attribute, QosSample};
use qos_service::QosPredictionService;
use std::collections::HashMap;

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

/// Feeds numbered samples to `service` in batches of 256, the batch size the
/// CLI warms a service with. User `n` is the entity named `user-n` and
/// service `n` the one named `svc-n`: each is joined under that name on its
/// first sight, and its id is looked up by number from then on.
pub fn feed_numbered(service: &QosPredictionService, samples: impl IntoIterator<Item = QosSample>) {
    let mut users = HashMap::new();
    let mut services = HashMap::new();
    let mut batch = Vec::with_capacity(256);
    for s in samples {
        let user = *users
            .entry(s.user)
            .or_insert_with(|| service.join_user(&format!("user-{}", s.user)));
        let svc = *services
            .entry(s.service)
            .or_insert_with(|| service.join_service(&format!("svc-{}", s.service)));
        batch.push((user, svc, s.timestamp, s.value));
        if batch.len() == 256 {
            service.submit_batch_ids(&batch);
            batch.clear();
        }
    }
    service.submit_batch_ids(&batch);
}

/// The seeded warm-up stream of `serve` and `stats --obs`: `samples`
/// samples from an LCG over a 24×32 entity grid, about 5% of them
/// deliberately invalid (NaN, negative, out of range) so the guard counters
/// are exercised, not just the happy path.
pub fn seeded_stream(samples: u64, seed: u64) -> impl Iterator<Item = QosSample> {
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
        QosSample::new(t, user as usize, svc as usize, value)
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

    /// Feeds `samples` through [`feed_numbered`] into one service and, as
    /// named records in the same 256-record batches, through `submit_batch`
    /// into another, and requires the two services to agree.
    fn assert_numbered_matches_named(samples: &[QosSample]) {
        let config = qos_service::ServiceConfig::default();
        let numbered = QosPredictionService::new(config);
        feed_numbered(&numbered, samples.iter().copied());
        let named = QosPredictionService::new(config);
        for batch in samples.chunks(256) {
            named.submit_batch(
                batch
                    .iter()
                    .map(|s| qos_service::QosRecord {
                        user: format!("user-{}", s.user),
                        service: format!("svc-{}", s.service),
                        timestamp: s.timestamp,
                        value: s.value,
                    })
                    .collect(),
            );
        }
        assert!(numbered.stats().rejected > 0, "the stream must be dirty");
        assert_eq!(numbered.stats(), named.stats());
        assert_eq!(numbered.guard_stats(), named.guard_stats());

        let names = |prefix: &str, number: fn(&QosSample) -> usize| {
            let mut names: Vec<String> = samples
                .iter()
                .map(|s| format!("{prefix}-{}", number(s)))
                .collect();
            names.sort();
            names.dedup();
            names.push(format!("{prefix}-unknown"));
            names
        };
        let users = names("user", |s| s.user);
        let services = names("svc", |s| s.service);
        for user in &users {
            for service in &services {
                let (a, b) = (
                    numbered.predict_degraded(user, service),
                    named.predict_degraded(user, service),
                );
                assert_eq!((a.value.to_bits(), a.source), (b.value.to_bits(), b.source));
            }
        }
        // Last, as joining gives the named service's entities model rows.
        for user in &users {
            assert_eq!(numbered.join_user(user), named.join_user(user));
        }
        for service in &services {
            assert_eq!(numbered.join_service(service), named.join_service(service));
        }
    }

    #[test]
    fn numbered_warm_up_matches_the_named_one() {
        let seeded: Vec<QosSample> = seeded_stream(1_500, 7).collect();
        assert_numbered_matches_named(&seeded);

        // A triplet file with sparse, huge numbers, `nan` and negative lines,
        // and an entity (user 99, service 77) named only in a rejected line.
        let dir = crate::test_dir("numbered_warm_up_matches_the_named_one");
        let path = dir.join("dirty.txt");
        let mut text = String::from("99 77 0 nan\n");
        for k in 1..700u64 {
            let user = [7u64, 3, 4_000_000_000, 12][k as usize % 4];
            let service = [0, 5_000, 42][k as usize % 3];
            let value = match k % 9 {
                2 => "nan".to_string(),
                5 => "-1.5".to_string(),
                _ => format!("{}", 0.2 + (k % 13) as f64 * 0.4),
            };
            text.push_str(&format!("{user} {service} {k} {value}\n"));
        }
        std::fs::write(&path, text).unwrap();
        let file: Vec<QosSample> = qos_dataset::io::triplets(std::fs::File::open(&path).unwrap())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_numbered_matches_named(&file);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn amf_config_defaults_by_attribute() {
        let c = amf_config_from(&args(&[]), Attribute::Throughput).unwrap();
        assert_eq!(c.alpha, -0.05);
        assert_eq!(c.r_max, 7000.0);
    }
}
