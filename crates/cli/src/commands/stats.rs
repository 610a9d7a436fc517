//! `amf-qos stats` — dataset statistics (the Fig. 6 table) for a synthetic
//! configuration or an imported WS-DREAM-format file, plus `--obs`, which
//! runs a short seeded training workload through the full prediction service
//! and prints the `amf-obs/v1` observability snapshot as JSON.

use super::CliError;
use crate::args::Args;
use qos_dataset::io;
use qos_linalg::stats as lstats;
use qos_service::{QosPredictionService, ServiceConfig};

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos stats [--scale small|medium|full] | amf-qos stats --data DENSE_FILE | amf-qos stats --obs [--samples N] [--seed S]";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable files or invalid flags.
pub fn run(args: &Args) -> Result<String, CliError> {
    if args.switch("obs") {
        return run_obs(args);
    }
    if let Some(path) = args.get("data") {
        // Statistics of an imported matrix file.
        let sparse = io::read_dense_as_sparse(std::fs::File::open(path)?)?;
        let values = sparse.observed_values();
        let summary = lstats::Summary::of(&values)
            .ok_or_else(|| CliError(format!("{path}: no observed values")))?;
        let skew = lstats::skewness(&values).unwrap_or(0.0);
        return Ok(format!(
            "file                  {path}\n\
             shape                 {} x {}\n\
             observed              {} ({:.1}% density)\n\
             min / median / max    {:.4} / {:.4} / {:.4}\n\
             mean / std            {:.4} / {:.4}\n\
             skewness              {:.3}\n",
            sparse.rows(),
            sparse.cols(),
            sparse.nnz(),
            sparse.density() * 100.0,
            summary.min,
            summary.median,
            summary.max,
            summary.mean,
            summary.std_dev,
            skew,
        ));
    }

    let scale = super::parse_scale(args)?;
    Ok(qos_eval::experiments::fig6::run(&scale).to_table())
}

/// `amf-qos stats --obs`: feed a deterministic synthetic stream through the
/// prediction service (screened, batched ingestion) and print the merged
/// `amf-obs/v1` snapshot. The output is pure JSON so it can be piped to
/// `jq`; everything is derived from `--seed`, so repeated runs produce the
/// same counter values (latency histograms naturally vary).
fn run_obs(args: &Args) -> Result<String, CliError> {
    let samples: u64 = args.parse_or("samples", 2_000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let service = QosPredictionService::try_new(ServiceConfig::default())
        .map_err(|e| CliError(format!("service: {e}")))?;

    super::feed_numbered(&service, super::seeded_stream(samples, seed));

    // Exercise the full prediction surface: the model path, the degraded
    // fallback ladder (unknown entities), and the batch ranking kernel.
    for u in 0..24 {
        let _ = service.predict(&format!("user-{u}"), &format!("svc-{}", u % 32));
        let _ = service.predict_degraded(&format!("user-{u}"), "svc-unknown");
        let _ = service.rank_candidates(&format!("user-{u}"), 5);
    }
    let _ = service.predict_degraded("user-unknown", "svc-unknown");

    Ok(service.stats_snapshot().to_string_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn synthetic_stats_table() {
        let out = run(&args(&["stats"])).unwrap();
        assert!(out.contains("#Users"));
        assert!(out.contains("RT average"));
    }

    #[test]
    fn file_stats() {
        let dir = crate::test_dir("file_stats");
        let path = dir.join("m.txt");
        std::fs::write(&path, "1.0 -1.0 3.0\n2.0 4.0 -1.0\n").unwrap();
        let out = run(&args(&["stats", "--data", &path.to_string_lossy()])).unwrap();
        assert!(out.contains("2 x 3"));
        assert!(out.contains("66.7% density"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn obs_mode_emits_schema_valid_json() {
        let out = run(&args(&["stats", "--obs", "--samples", "500"])).unwrap();
        let doc = qos_obs::Json::parse(&out).expect("obs output must be pure JSON");
        assert_eq!(
            doc.get("schema").and_then(qos_obs::Json::as_str),
            Some(qos_obs::SCHEMA)
        );
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(qos_obs::Json::as_u64)
                .unwrap_or(0)
        };
        assert!(counter("service.accepted") > 400);
        assert!(
            counter("service.rejected") > 0,
            "garbage samples must hit the guard"
        );
        assert!(counter("service.predictions") > 0);
        // Unknown entities walk the fallback ladder; with data present they
        // land on the global mean rather than the hard default.
        assert!(counter("service.predict_source.global-mean") > 0);
    }

    #[test]
    fn empty_file_rejected() {
        let dir = crate::test_dir("empty_file_rejected");
        let path = dir.join("empty.txt");
        std::fs::write(&path, "-1.0 -1.0\n").unwrap();
        assert!(run(&args(&["stats", "--data", &path.to_string_lossy()])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
